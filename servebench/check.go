package main

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"encoding"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"nocap"
)

// servedParams are the parameters the server proves bm under: the
// library defaults with reps repetitions and the Orion row count capped
// at half the variables, as the server's request path does.
func servedParams(bm *nocap.Benchmark) nocap.Params {
	p := nocap.DefaultParams()
	p.Reps = reps
	if half := bm.Inst.NumVars() / 2; p.PCS.Rows > half {
		p.PCS.Rows = half
	}
	return p
}

// servedLimits are the decode limits of a server run with the default
// 64 MB per-request memory envelope.
func servedLimits() nocap.DecodeLimits {
	const budget = 64 << 20
	l := nocap.DefaultDecodeLimits()
	l.MaxTotalAlloc = budget
	l.MaxProofBytes = min(l.MaxProofBytes, budget)
	return l
}

// referenceOutputs computes what the aes and sha circuits must output
// with the Go standard library, over the inputs the circuits package
// derives from n. ok is false for circuits without a reference.
func referenceOutputs(op Op) (out []byte, ok bool) {
	switch op.Circuit {
	case "aes":
		key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
			0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
		pt := make([]byte, 16*op.N)
		for i := range pt {
			pt[i] = byte(i)
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			panic(err) // a 16-byte key is always valid
		}
		out = make([]byte, len(pt))
		for off := 0; off < len(pt); off += 16 {
			block.Encrypt(out[off:], pt[off:])
		}
		return out, true
	case "sha":
		// The circuit compresses whole blocks without SHA-256 padding, so
		// the reference is the hash state after writing them, read from
		// the state encoding: 4-byte magic, then h0..h7 big-endian.
		data := make([]byte, 64*op.N)
		for i := range data {
			data[i] = byte(i * 3)
		}
		h := sha256.New()
		h.Write(data)
		st, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic(err)
		}
		return st[4:36], true
	}
	return nil, false
}

// checkProofs verifies every returned proof in this process against a
// statement built here with nocap.CircuitByName, and checks aes and sha
// outputs against the standard library. Samples sharing a statement
// share one build. It returns one line per problem found.
func checkProofs(samples []sample, workers int) []string {
	groups := map[Op][]int{}
	var order []Op
	for i, s := range samples {
		if s.Err != nil {
			continue
		}
		if _, ok := groups[s.Op]; !ok {
			order = append(order, s.Op)
		}
		groups[s.Op] = append(groups[s.Op], i)
	}
	var (
		mu       sync.Mutex
		problems []string
		wg       sync.WaitGroup
	)
	report := func(format string, a ...any) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, a...))
		mu.Unlock()
	}
	work := make(chan Op)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range work {
				checkGroup(op, groups[op], samples, report)
			}
		}()
	}
	for _, op := range order {
		work <- op
	}
	close(work)
	wg.Wait()
	return problems
}

func checkGroup(op Op, idx []int, samples []sample, report func(string, ...any)) {
	bm, err := nocap.CircuitByName(op.Circuit, op.N)
	if err != nil {
		report("%v: build statement: %v", op, err)
		return
	}
	if want, ok := referenceOutputs(op); ok && !bytes.Equal(bm.Outputs, want) {
		report("%v: circuit outputs %x differ from the standard library's %x", op, bm.Outputs, want)
	}
	params := servedParams(bm)
	for _, i := range idx {
		s := samples[i]
		if !s.Valid {
			report("%v: server /verify rejected the server's own proof", op)
		}
		if s.Cached {
			report("%v: answered from the proof cache, so no proving was measured", op)
		}
		if s.State != "" && (s.State != "done" || s.Attempts != 1) {
			report("%v: job reached %q after %d attempts, want done after 1", op, s.State, s.Attempts)
		}
		proof, err := nocap.UnmarshalProofLimits(s.Proof, servedLimits())
		if err != nil {
			report("%v: decode returned proof: %v", op, err)
			continue
		}
		if err := nocap.Verify(params, bm.Inst, bm.IO, proof); err != nil {
			report("%v: in-process Verify of the returned proof: %v", op, err)
		}
	}
}

// flipFieldBit returns a copy of proof with the lowest bit of one field
// element flipped: the first repetition's claimed A-evaluation, found by
// its little-endian encoding.
func flipFieldBit(proof []byte) ([]byte, error) {
	p, err := nocap.UnmarshalProof(proof)
	if err != nil {
		return nil, err
	}
	if len(p.Reps) == 0 {
		return nil, fmt.Errorf("proof has no repetitions")
	}
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], p.Reps[0].VA.Uint64())
	at := bytes.Index(proof, le[:])
	if at < 0 {
		return nil, fmt.Errorf("field element not found in the encoding")
	}
	bad := bytes.Clone(proof)
	bad[at] ^= 1
	return bad, nil
}

// rejectionChecks sends the server two proofs it must reject: s's proof
// with a flipped bit inside a field element, and s's proof against the
// statement with n+2 (a different statement for every circuit). Each is
// one operation. A rejection is 200 with valid:false or a 4xx, either
// with a taxonomy code.
func rejectionChecks(c *client, s sample) (attempted, failed int, problems []string) {
	bad, err := flipFieldBit(s.Proof)
	if err != nil {
		return 0, 0, []string{fmt.Sprintf("%v: tamper: %v", s.Op, err)}
	}
	cases := []struct {
		name  string
		op    Op
		proof []byte
	}{
		{"flipped-bit proof", s.Op, bad},
		{"proof against n+2", Op{s.Op.Circuit, s.Op.N + 2}, s.Proof},
	}
	for _, tc := range cases {
		attempted++
		req := verifyReq{tc.op.Circuit, tc.op.N, reps, base64.StdEncoding.EncodeToString(tc.proof)}
		status, body, err := c.do(http.MethodPost, "/verify", req)
		if err != nil || status >= 500 {
			failed++
			continue
		}
		var r struct {
			Valid bool   `json:"valid"`
			Code  string `json:"code"`
		}
		if jerr := json.Unmarshal(body, &r); jerr != nil {
			problems = append(problems, fmt.Sprintf("%v %s: undecodable answer %d: %.200s", s.Op, tc.name, status, body))
			continue
		}
		rejected := (status == http.StatusOK && !r.Valid && r.Code != "") ||
			(status >= 400 && status < 500 && r.Code != "")
		if !rejected {
			problems = append(problems, fmt.Sprintf("%v %s: not rejected (status %d, %.200s)", s.Op, tc.name, status, body))
		}
	}
	return attempted, failed, problems
}
