package main

import (
	"fmt"
	"math"
	"math/rand"
)

// Op is one statement the benchmark asks the server to prove. Only these
// (circuit, n) pairs reach the server; the seed never does.
type Op struct {
	Circuit string `json:"circuit"`
	N       int    `json:"n"`
}

func (o Op) String() string { return fmt.Sprintf("%s:%d", o.Circuit, o.N) }

// Workload is one traffic mix against one served configuration.
type Workload struct {
	Name string
	// ServerArgs are the nocap-serve flags beyond -addr; everything not
	// named here is the served default.
	ServerArgs []string
	// DataDir starts the server with a fresh -data-dir (the jobs API).
	DataDir bool
	// CacheOn says the proof cache is on, so every prove pays
	// verify-on-insert and no statement may repeat within a server's life.
	CacheOn bool
	// Clients is the number of closed-loop sync clients; zero means the
	// async jobs path: one client sends bursts of Burst jobs.
	// Two job workers prove a burst two at a time, so its latencies fall
	// into Burst/2 classes. An odd number of classes puts every median
	// inside one: bursts of 8 put it between the second and third class.
	Clients int
	Burst   int
	// Block is the number of operations in one timed block: whole rounds
	// of the paper circuits, or whole bursts. Blocks run one after
	// another, each to its end.
	Block int
	// Warmup is the number of operations each set-up runs before timing.
	Warmup int
	// Rate is the nominal operations per second on a 2-vCPU host; with
	// --seconds it sizes the timed list (see timedCount).
	Rate float64
	// TraceOps is how many leading operations of the timed list the
	// traced run replays (whole rounds).
	TraceOps int
	// synthetic draws distinct synthetic statements instead of paper
	// circuit rounds.
	synthetic bool
}

// minSamples is the smallest timed list: the nearest-rank p90 of 100
// samples has exactly ten samples beyond it.
const minSamples = 100

// minBlocks is the smallest number of timed blocks. Per-block figures
// are summarized by their median, so with five blocks a host disturbance
// (CPU steal from neighbouring machines) that spans two blocks does not
// move the result.
const minBlocks = 5

// setups is how many times each run launches the server and warms it
// up; setup_s is their median, and the last server is the one timed.
const setups = 3

// paperOps are the five paper circuits at the sizes served here:
// aes:1 pads to 2^17 constraints, the other four to 2^16.
var paperOps = []Op{
	{"aes", 1}, {"sha", 1}, {"rsa", 64}, {"litmus", 256}, {"auction", 512},
}

// Synthetic statements are drawn from the even n in [synthMin, synthMax]:
// every such n pads to 2^16 constraints and 2^17 variables (65535 would
// already pad to 2^18 variables), so their costs are alike. Only even n
// are drawn because the generator adds constraints two at a time, so an
// odd n builds the same statement as n+1 and would hit the proof cache.
const (
	synthMin = 32769
	synthMax = 65000
)

var workloads = []*Workload{
	{
		Name:       "paper-circuits",
		ServerArgs: []string{"-cache-mb", "0"},
		Clients:    2,
		Block:      4 * len(paperOps),
		Warmup:     2,
		Rate:       3.4,
		TraceOps:   2 * len(paperOps),
	},
	{
		Name:      "synthetic-distinct",
		CacheOn:   true,
		Clients:   2,
		Block:     20,
		Warmup:    2,
		Rate:      4.8,
		TraceOps:  10,
		synthetic: true,
	},
	{
		Name:      "async-burst",
		DataDir:   true,
		CacheOn:   true,
		Burst:     10,
		Block:     20,
		Warmup:    2,
		Rate:      4.1,
		TraceOps:  10,
		synthetic: true,
	},
}

func workloadByName(name string) (*Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// Plan is one run's fixed operation list, made from the seed alone.
type Plan struct {
	// Warmups holds one warm-up list per set-up.
	Warmups [][]Op
	// Timed is the measured list: whole blocks, at least minSamples.
	Timed []Op
}

// timedCount sizes the timed list for a run of the given length: whole
// blocks, at least minBlocks of them and at least minSamples operations.
func (w *Workload) timedCount(seconds int) int {
	n := max(minSamples, minBlocks*w.Block, int(math.Ceil(float64(seconds)*w.Rate)))
	return (n + w.Block - 1) / w.Block * w.Block
}

// blocks splits the timed list into its blocks.
func (w *Workload) blocks(timed []Op) [][]Op {
	var out [][]Op
	for b := 0; b < len(timed); b += w.Block {
		out = append(out, timed[b:min(b+w.Block, len(timed))])
	}
	return out
}

// MakePlan builds the run's operation list. The same workload, seed and
// seconds always give the same list. Synthetic statements are distinct
// across every warm-up and timed operation of the run.
func (w *Workload) MakePlan(seed int64, seconds int) Plan {
	r := rand.New(rand.NewSource(seed))
	used := map[int]bool{}
	next := func(k int) []Op {
		if w.synthetic {
			return drawSynthetic(r, used, k)
		}
		return paperRounds(r, k)
	}
	var p Plan
	for range setups {
		p.Warmups = append(p.Warmups, next(w.Warmup))
	}
	p.Timed = next(w.timedCount(seconds))
	return p
}

// paperRounds returns k operations made of seeded permutations of the
// paper circuits, so each circuit appears equally often in every whole
// round. A warm-up (k < a round) starts with aes:1 so that both padded
// sizes are warm before timing.
func paperRounds(r *rand.Rand, k int) []Op {
	out := make([]Op, 0, k)
	if k < len(paperOps) {
		out = append(out, paperOps[0])
		for _, j := range r.Perm(len(paperOps) - 1)[:k-1] {
			out = append(out, paperOps[1+j])
		}
		return out
	}
	for len(out) < k {
		for _, j := range r.Perm(len(paperOps)) {
			out = append(out, paperOps[j])
		}
	}
	return out
}

// drawSynthetic returns k synthetic statements whose n has not been
// used before in this plan.
func drawSynthetic(r *rand.Rand, used map[int]bool, k int) []Op {
	out := make([]Op, 0, k)
	for len(out) < k {
		n := (synthMin + 1 + r.Intn(synthMax-synthMin+1)) &^ 1
		if used[n] {
			continue
		}
		used[n] = true
		out = append(out, Op{"synthetic", n})
	}
	return out
}
