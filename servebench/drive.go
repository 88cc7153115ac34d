package main

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// reps is sent with every request. A request without reps is proved with
// one repetition whatever the server's -reps says, so the benchmark
// names the served default (3) itself.
const reps = 3

// pollEvery is the async client's pause after a sweep of polls in which
// no job finished.
const pollEvery = 10 * time.Millisecond

// sample is one operation as the client saw it: a prove (sync, or a job
// from submission to fetched proof) followed by /verify of its proof.
type sample struct {
	Op    Op
	Err   error // the operation failed: no response, or an unexpected status
	Proof []byte

	ProveMS  float64 // POST /prove (or /jobs) sent → proof bytes decoded
	VerifyMS float64 // POST /verify round trip
	Valid    bool    // /verify's verdict
	Cached   bool    // the server answered from its proof cache

	// Server-reported times (sync path) and job-path details.
	QueueMS         float64
	ProveElapsedMS  float64
	VerifyElapsedMS float64
	AcceptMS        float64 // POST /jobs round trip
	FetchMS         float64 // GET /jobs/{id}?proof=1 round trip
	Polls           int
	Attempts        int
	State           string // job state in the ?proof=1 answer
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// syncOp runs POST /prove then POST /verify for op.
func (c *client) syncOp(op Op) sample {
	s := sample{Op: op}
	t0 := time.Now()
	var pr proveResp
	if s.Err = c.call(http.MethodPost, "/prove", proveReq{op.Circuit, op.N, reps}, http.StatusOK, &pr); s.Err != nil {
		return s
	}
	if s.Proof, s.Err = base64.StdEncoding.DecodeString(pr.ProofB64); s.Err != nil {
		return s
	}
	s.ProveMS = msSince(t0)
	s.QueueMS, s.ProveElapsedMS, s.Cached = pr.QueueMS, pr.ElapsedMS, pr.Cached
	c.verify(&s, pr.ProofB64)
	return s
}

func (c *client) verify(s *sample, b64 string) {
	t := time.Now()
	var vr verifyResp
	req := verifyReq{s.Op.Circuit, s.Op.N, reps, b64}
	if s.Err = c.call(http.MethodPost, "/verify", req, http.StatusOK, &vr); s.Err != nil {
		return
	}
	s.VerifyMS = msSince(t)
	s.Valid, s.VerifyElapsedMS = vr.Valid, vr.ElapsedMS
}

// runSync runs ops through closed-loop clients, each sending its next
// operation only when the previous one completed. Operations are taken
// in list order, so every run issues the same multiset.
func (c *client) runSync(ops []Op, clients int) []sample {
	out := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				out[i] = c.syncOp(ops[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// runJobs sends ops as bursts of durable jobs from one client: submit
// the whole burst, poll each job until done and fetch its proof, then
// verify the burst's proofs one by one before the next burst. Verifying
// after the burst keeps /verify out of the job backlog: interleaved, a
// verify waited behind a random share of a running prove, and its
// median moved by a quarter from run to run.
func (c *client) runJobs(ops []Op, burst int) []sample {
	out := make([]sample, len(ops))
	for b := 0; b < len(ops); b += burst {
		e := min(b+burst, len(ops))
		c.jobBurst(ops[b:e], out[b:e])
	}
	return out
}

func (c *client) jobBurst(ops []Op, out []sample) {
	ids := make([]string, len(ops))
	starts := make([]time.Time, len(ops))
	proofs := make([]string, len(ops))
	var pending []int
	for i, op := range ops {
		out[i].Op = op
		starts[i] = time.Now()
		var jr jobResp
		if out[i].Err = c.call(http.MethodPost, "/jobs", proveReq{op.Circuit, op.N, reps}, http.StatusAccepted, &jr); out[i].Err != nil {
			continue
		}
		out[i].AcceptMS = msSince(starts[i])
		ids[i] = jr.ID
		pending = append(pending, i)
	}
	for len(pending) > 0 {
		var still []int
		for _, i := range pending {
			var jr jobResp
			if out[i].Err = c.call(http.MethodGet, "/jobs/"+ids[i], nil, http.StatusOK, &jr); out[i].Err != nil {
				continue
			}
			out[i].Polls++
			switch jr.State {
			case "done":
				proofs[i] = c.fetchJob(&out[i], ids[i], starts[i])
			case "failed", "cancelled":
				out[i].Err = fmt.Errorf("job %s ended %s: %s", ids[i], jr.State, jr.Error)
			default:
				still = append(still, i)
			}
		}
		if len(still) == len(pending) {
			time.Sleep(pollEvery)
		}
		pending = still
	}
	for i := range out {
		if out[i].Err == nil {
			c.verify(&out[i], proofs[i])
		}
	}
}

// fetchJob fetches a done job's proof and returns it as sent.
func (c *client) fetchJob(s *sample, id string, start time.Time) string {
	t := time.Now()
	var jr jobResp
	if s.Err = c.call(http.MethodGet, "/jobs/"+id+"?proof=1", nil, http.StatusOK, &jr); s.Err != nil {
		return ""
	}
	if s.Proof, s.Err = base64.StdEncoding.DecodeString(jr.ProofB64); s.Err != nil {
		return ""
	}
	s.ProveMS = msSince(start)
	s.FetchMS = msSince(t)
	s.State, s.Attempts, s.Cached = jr.State, jr.Attempts, jr.Cached
	return jr.ProofB64
}

// run drives ops the way the workload does.
func (w *Workload) run(c *client, ops []Op) []sample {
	if w.Burst > 0 {
		return c.runJobs(ops, w.Burst)
	}
	return c.runSync(ops, w.Clients)
}
