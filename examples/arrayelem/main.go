// Command arrayelem is race-free: one goroutine writes an element of an
// array field while main reads a different element of it. Distinct
// array elements are distinct locations, so neither `go run -race` nor
// `racedetect run` may report a race here.
//
//	racedetect run ./examples/arrayelem   # exit 0
package main

import "fmt"

type item struct {
	id   int
	vals [8]int
}

var shared item

func main() {
	done := make(chan bool)
	go func() {
		shared.vals[0] = 1
		done <- true
	}()
	v := shared.vals[3]
	<-done
	fmt.Println(v)
}
