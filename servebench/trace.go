package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"nocap"
)

// span is one timed call. Spans of one operation share Op; Parent is -1
// for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. The
// traced run is sequential, so it needs no lock. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
		var covered, reach int64 = 0, s.Start
		for _, v := range ivs {
			a := max(v.a, reach)
			if v.b > a {
				covered += v.b - a
				reach = v.b
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// replayLayers are the public entry points the server calls for one
// operation, in the order it calls them; their spans partition the
// replayed operation up to the loop's own glue.
var replayLayers = []string{
	"circuits.synth", "r1cs.digest", "spartan.prove", "wire.marshal", "wire.unmarshal", "spartan.verify",
}

// replay makes, in this process, the calls the server makes for op:
// for the prove, CircuitByName, Instance.Digest (so the digest inside
// ProveCtx is a memo hit), ProveCtx with a Collector, MarshalProof and,
// with the proof cache on, verify-on-insert (UnmarshalProof + VerifyCtx);
// for /verify, UnmarshalProof, CircuitByName, Digest and VerifyCtx. It
// returns the operation's wall time and the prove's kernel counters.
func replay(op Op, opID int, cacheOn bool, tr *tracer) (time.Duration, nocap.ProveStats, error) {
	ctx := context.Background()
	var (
		bm, vbm   *nocap.Benchmark
		proof, vp *nocap.Proof
		data      []byte
		proveCol  = nocap.NewCollector()
	)
	calls := []call{
		{"circuits.synth", func() (err error) { bm, err = nocap.CircuitByName(op.Circuit, op.N); return }},
		{"r1cs.digest", func() error { bm.Inst.Digest(); return nil }},
		{"spartan.prove", func() (err error) {
			proof, err = nocap.ProveCtx(proveCol.Attach(ctx), servedParams(bm), bm.Inst, bm.IO, bm.Witness)
			return
		}},
		{"wire.marshal", func() (err error) { data, err = nocap.MarshalProof(proof); return }},
	}
	if cacheOn {
		var p *nocap.Proof
		calls = append(calls,
			call{"wire.unmarshal", func() (err error) { p, err = nocap.UnmarshalProofLimits(data, servedLimits()); return }},
			call{"spartan.verify", func() error {
				return nocap.VerifyCtx(nocap.NewCollector().Attach(ctx), servedParams(bm), bm.Inst, bm.IO, p)
			}},
		)
	}
	calls = append(calls,
		call{"wire.unmarshal", func() (err error) { vp, err = nocap.UnmarshalProofLimits(data, servedLimits()); return }},
		call{"circuits.synth", func() (err error) { vbm, err = nocap.CircuitByName(op.Circuit, op.N); return }},
		call{"r1cs.digest", func() error { vbm.Inst.Digest(); return nil }},
		call{"spartan.verify", func() error {
			return nocap.VerifyCtx(nocap.NewCollector().Attach(ctx), servedParams(vbm), vbm.Inst, vbm.IO, vp)
		}},
	)

	t0 := time.Now()
	root := tr.begin(opID, -1, "replay")
	for _, c := range calls {
		id := tr.begin(opID, root, c.name)
		err := c.f()
		tr.end(id)
		if err != nil {
			return 0, nocap.ProveStats{}, fmt.Errorf("%v %s: %w", op, c.name, err)
		}
	}
	tr.end(root)
	return time.Since(t0), proveCol.Stats(), nil
}

// call is one public entry point the replay times as a span.
type call struct {
	name string
	f    func() error
}

// traceRun measures the per-layer metrics. It serves the workload's
// leading TraceOps operations over HTTP one at a time (nothing else runs
// meanwhile, and nothing is traced inside the server), taking /metrics
// deltas around that phase. Then it stops the server and replays each
// operation in this process twice, once traced and once not, alternating
// which goes first. Layer times are mean milliseconds per operation;
// unattributed_ms is the served operation's time minus the replayed
// layers, and trace.overhead_ms is traced minus untraced replay time.
func traceRun(w *Workload, plan Plan, o opts) (result, error) {
	ops := plan.Timed[:w.TraceOps]
	n := float64(len(ops))
	srv, err := w.start(o, 0)
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()
	if err := warmUp(w, c, plan.Warmups[0]); err != nil {
		return result{}, err
	}

	before, err := c.scrape()
	if err != nil {
		return result{}, err
	}
	tr := &tracer{t0: time.Now()}
	served := make([]sample, len(ops))
	var servedMS []float64
	res := result{Attempted: len(ops), Metrics: map[string]metric{}}
	for i, op := range ops {
		id := tr.begin(i, -1, "served")
		t := time.Now()
		served[i] = w.run(c, []Op{op})[0]
		servedMS = append(servedMS, msSince(t))
		tr.end(id)
		if served[i].Err != nil {
			return result{}, fmt.Errorf("traced run: %v: %w", op, served[i].Err)
		}
	}
	after, err := c.scrape()
	if err != nil {
		return result{}, err
	}
	a, f, problems := rejectionChecks(c, served[0])
	res.Attempted += a
	res.Failed += f
	if err := srv.stop(); err != nil {
		return result{}, err
	}
	problems = append(problems, checkProofs(served, 2)...)

	var tracedMS, plainMS []float64
	kernelMS := map[string]float64{}
	kernelElems := map[string]float64{}
	for i, op := range ops {
		for k := range 2 {
			if (i+k)%2 == 0 {
				d, st, err := replay(op, i, w.CacheOn, tr)
				if err != nil {
					return result{}, err
				}
				tracedMS = append(tracedMS, float64(d)/float64(time.Millisecond))
				for name, ss := range st.Stages.Named() {
					kernelMS[name] += float64(ss.Wall) / float64(time.Millisecond)
					kernelElems[name] += float64(ss.Elems)
				}
			} else {
				d, _, err := replay(op, i, w.CacheOn, nil)
				if err != nil {
					return result{}, err
				}
				plainMS = append(plainMS, float64(d)/float64(time.Millisecond))
			}
		}
	}
	if err := writeSpans(o, w, tr.spans); err != nil {
		return result{}, err
	}

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	self := selfTimes(tr.spans)
	layerMS := map[string]float64{}
	for i, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Name == "replay" {
			layerMS[s.Name] += float64(self[i]) / float64(time.Millisecond)
		}
	}
	opMS := mean(servedMS)
	unattributed := opMS
	for _, name := range replayLayers {
		put(name+"_ms", "ms", layerMS[name]/n)
		unattributed -= layerMS[name] / n
	}
	for _, stage := range []string{"sumcheck", "rs-encode", "merkle", "spmv", "poly-arith"} {
		put("kernel."+stage+"_ms", "ms", kernelMS[stage]/n)
	}
	for _, stage := range []string{"sumcheck", "rs-encode", "merkle"} {
		put("kernel."+stage+"_elems", "count", kernelElems[stage]/n)
	}
	put("op_ms", "ms", opMS)
	put("unattributed_ms", "ms", unattributed)
	put("replay_ms", "ms", mean(plainMS))
	put("trace.overhead_ms", "ms", mean(tracedMS)-mean(plainMS))

	delta := func(name string) float64 { return after[name] - before[name] }
	var httpMS, queueMS, acceptMS, polls []float64
	for _, s := range served {
		if w.Burst > 0 {
			httpMS = append(httpMS, s.AcceptMS+s.FetchMS+s.VerifyMS-s.VerifyElapsedMS)
			acceptMS = append(acceptMS, s.AcceptMS)
			polls = append(polls, float64(s.Polls))
		} else {
			httpMS = append(httpMS, s.ProveMS-s.ProveElapsedMS-s.QueueMS+s.VerifyMS-s.VerifyElapsedMS)
			queueMS = append(queueMS, s.QueueMS)
		}
	}
	put("server.http_ms", "ms", mean(httpMS))
	if w.Burst > 0 {
		// Job responses carry no queue_ms; the scheduler's own wait
		// counter stands in (admission wait without the build).
		put("server.queue_ms", "ms", delta("nocap_queue_wait_ns_total")/1e6/n)
		put("jobs.accept_ms", "ms", median(acceptMS))
		put("jobs.polls_per_job", "count", mean(polls))
	} else {
		put("server.queue_ms", "ms", mean(queueMS))
		put("jobs.accept_ms", "ms", 0)
		put("jobs.polls_per_job", "count", 0)
	}
	if gets := delta("nocap_arena_gets_total"); gets > 0 {
		put("arena.hit_ratio", "ratio", delta("nocap_arena_hits_total")/gets)
	} else {
		put("arena.hit_ratio", "ratio", 0)
	}
	put("arena.misses", "count", delta("nocap_arena_misses_total")/n)
	put("proofcache.hits", "count", delta("nocap_proofcache_hits_total"))
	put("proofcache.misses", "count", delta("nocap_proofcache_misses_total"))
	put("proofcache.inserts", "count", delta("nocap_proofcache_inserts_total"))

	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "servebench: check:", p)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

func writeSpans(o opts, w *Workload, spans []span) error {
	dir := filepath.Join(o.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.Name, o.seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "servebench: spans written to", path)
	return nil
}
