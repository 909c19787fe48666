// Command target is the program the run-instrumented workload analyses
// with `racedetect run`. It imports only the standard library, so the
// instrumentation front-end can rewrite it.
//
// Two worker goroutines exchange short-lived heap objects over an
// unbuffered channel, update a mutex-protected counter, and allocate
// private scratch buffers that the garbage collector reclaims as usual.
// After their last synchronization both workers write the first
// PERFBENCH_RACES elements of racy, so those races are reported under
// every schedule. main writes them first, which gives them the dense
// variable ids 0..PERFBENCH_RACES-1 in the instrumented trace.
//
// The size comes from the environment, because `racedetect run` passes
// no arguments to its target:
//
//	PERFBENCH_OPS    handoffs between the workers (default 1000)
//	PERFBENCH_SEED   seeds the values written (default 1)
//	PERFBENCH_RACES  seeded races, at most 8 (default 2)
//
// The last line of output reports the time from the start of main to
// the end of the work, and the number of shared-memory accesses the
// source performs (each one is a record site in the instrumented build).
package main

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

const (
	maxRaces  = 8
	nvals     = 8
	mixRounds = 1000
)

type item struct {
	id   int
	vals [nvals]int
}

var (
	racy [maxRaces]int

	mu      sync.Mutex
	counter int
	weight  = 3
)

func main() {
	start := time.Now()
	ops := envInt("PERFBENCH_OPS", 1000)
	seed := envInt("PERFBENCH_SEED", 1)
	races := envInt("PERFBENCH_RACES", 2)
	if races > maxRaces {
		races = maxRaces
	}
	for i := 0; i < races; i++ {
		racy[i] = seed // 1 write
	}
	accesses := races

	ch := make(chan *item)
	res := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go produce(ch, ops, seed, races, res, &wg)
	go consume(ch, races, res, &wg)
	wg.Wait()
	accesses += <-res + <-res
	mu.Lock()
	sum := counter // 1 read
	mu.Unlock()
	accesses++
	fmt.Printf("perfbench-target: elapsed_ns=%d accesses=%d counter=%d\n",
		time.Since(start).Nanoseconds(), accesses, sum)
}

// produce allocates one item per handoff, fills it and sends it.
func produce(ch chan<- *item, ops, seed, races int, res chan<- int, wg *sync.WaitGroup) {
	acc := 0
	for i := 0; i < ops; i++ {
		it := &item{id: i}
		v := mix(seed + i)
		for k := 0; k < nvals; k++ {
			it.vals[k] = v + k // 1 write
		}
		acc += nvals + scratch(i)
		ch <- it
		mu.Lock()
		counter++ // 1 read, 1 write
		mu.Unlock()
		acc += 2
	}
	close(ch)
	for i := 0; i < races; i++ {
		racy[i]++ // 1 read, 1 write
	}
	acc += 2 * races
	res <- acc
	wg.Done()
}

// consume reads every field of each item it receives.
func consume(ch <-chan *item, races int, res chan<- int, wg *sync.WaitGroup) {
	acc := 0
	sum := 0
	for it := range ch {
		w := weight + weight // 2 reads of one variable, coalesced by the shim
		for k := 0; k < nvals; k++ {
			sum += it.vals[k] * w // 1 read
		}
		sum = mix(sum)
		acc += 2 + nvals + scratch(it.id) + 1 // the argument reads it.id
		mu.Lock()
		counter += sum & 1 // 1 read, 1 write
		mu.Unlock()
		acc += 2
	}
	for i := 0; i < races; i++ {
		racy[i]++ // 1 read, 1 write
	}
	acc += 2 * races
	res <- acc
	wg.Done()
}

// mix is the program's local computation between shared accesses: it
// touches no shared memory, so instrumentation leaves it alone.
func mix(x int) int {
	h := uint64(x)
	for k := 0; k < mixRounds; k++ {
		h = h*6364136223846793005 + 1442695040888963407
		h ^= h >> 29
	}
	return int(h >> 1)
}

// scratch writes and reads a private buffer that becomes garbage on
// return, and returns the number of accesses it made.
func scratch(n int) int {
	b := new([4]int)
	b[0] = n        // 1 write
	b[1] = b[0] + 1 // 1 read, 1 write
	return 3
}

func envInt(name string, def int) int {
	if v, err := strconv.Atoi(os.Getenv(name)); err == nil && v >= 0 {
		return v
	}
	return def
}
