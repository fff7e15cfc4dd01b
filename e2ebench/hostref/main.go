// hostref times a fixed piece of work, the host reference, once per line
// read from standard input, and writes the wall time in nanoseconds as
// one line to standard output. It exits when standard input closes.
//
// The e2ebench client runs it after every timed operation, while the
// server is idle, and scales the reported times by how fast the host ran
// the reference (see ../NOTES.md). It is a process of its own, built
// without the repository's PGO profile and importing only the standard
// library, so that no change to the program under test moves it, and
// its heap is not the client's.
package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"
)

func main() {
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		fmt.Fprintln(out, int64(run()))
		if err := out.Flush(); err != nil {
			os.Exit(1)
		}
	}
}

// run does the reference work on two goroutines, one per CPU the server
// uses, and returns its wall time.
func run() time.Duration {
	t := time.Now()
	var wg sync.WaitGroup
	for g := range sink {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink[g] = work(int64(g + 1))
		}()
	}
	wg.Wait()
	return time.Since(t)
}

var sink [2]int

// rounds sets the size of the work: one run takes about 12 ms on an
// unloaded 2-vCPU VM.
const rounds = 100000

type node struct {
	next *node
	v    int
}

// work allocates, fills a map and sorts, like the optimisers'
// evaluations. It returns a checksum so the work cannot be optimised
// away.
func work(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	m := map[int]int{}
	var head *node
	s := make([]float64, 0, rounds/10)
	for i := range rounds {
		k := r.Intn(8192)
		m[k] += i
		head = &node{head, k}
		if i%10 == 0 {
			s = append(s, r.Float64())
		}
	}
	slices.Sort(s)
	sum := len(m) + int(s[len(s)/2]*1e6)
	for n := head; n != nil; n = n.next {
		sum += n.v
	}
	return sum
}
