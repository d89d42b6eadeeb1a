package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// The benchmark runs on a few cores of a shared machine whose speed
// drifts with other tenants' load: a fixed piece of Go code runs 10–15%
// slower for tens of seconds to minutes at a time, and memory-bound
// code more. Such a phase moves a whole run, so no statistic taken
// within the run removes it; over ten 20 s runs it spread the median
// warm explain by up to 0.42 of its value. Every timing the end-to-end
// metrics report is therefore scaled to a fixed host speed, measured in
// the same run by a reference task: fixed code on fixed inputs that
// never calls the program, run after every round of the measured loop.
// A run's timing d is reported as
//
//	d × refNominal / (median of the run's reference times)
//
// The reference never calls the program, so a change to the program
// moves a scaled timing as it moves the measured one, while a slow phase
// of the host moves the timing and the reference alike, and cancels.
// Work the program leaves running between rounds (a garbage collection
// in progress, busy goroutines) slows the reference too, so such a
// regression shows less in the scaled timings than in the raw ones. The
// raw timings stay in the output and, with the reference's own time
// (host.ref_ms), among the per-layer metrics.

// refNominal is the reference task's time on the reference host, a
// 2-vCPU VM, in its fast phases: a scaled timing is the timing on a
// host where the reference takes this long.
const refNominal = 25 * time.Millisecond

// refRecord is one record of the reference task's JSON document.
type refRecord struct {
	Name  string   `json:"name"`
	Vals  []int    `json:"vals"`
	Tags  []string `json:"tags"`
	Score float64  `json:"score"`
}

// refSink keeps the reference task's results alive.
var refSink int

// referenceTask runs the reference task and returns its time. Its mix —
// building and JSON-encoding and -decoding a document of 3,000 records,
// sorting 40,000 floats, 30,000 map updates — is the kind of work the
// program's requests do (allocation, encoding, sorting, hashing), so a
// host phase slows it about as much as it slows them.
func referenceTask() time.Duration {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	records := make([]refRecord, 3000)
	for i := range records {
		records[i] = refRecord{
			Name:  "record" + strconv.Itoa(i),
			Vals:  []int{i, 2 * i, 3 * i, rng.Intn(1000)},
			Tags:  []string{"a" + strconv.Itoa(i%17), "b" + strconv.Itoa(i%31)},
			Score: rng.Float64(),
		}
	}
	doc, err := json.Marshal(records)
	if err != nil {
		panic(err) // cannot happen: the records are plain data
	}
	var back []refRecord
	if err := json.Unmarshal(doc, &back); err != nil {
		panic(err)
	}
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	m := make(map[int]int, 1000)
	for i := 0; i < 30000; i++ {
		m[rng.Intn(1<<20)] += i
	}
	refSink += len(back) + len(m) + int(xs[0])
	return time.Since(start)
}

// hostScale is the factor that scales a run's timings to the nominal
// host speed: refNominal over the median of the run's reference times.
func hostScale(refs series) float64 {
	return float64(refNominal) / float64(time.Millisecond) / refs.median()
}
