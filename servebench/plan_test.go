package main

import (
	"bytes"
	"reflect"
	"testing"

	"nocap"
)

func TestPlanIsDeterministicForASeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.MakePlan(7, 30), w.MakePlan(7, 30)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans for seed 7 differ", w.Name)
		}
		if c := w.MakePlan(8, 30); reflect.DeepEqual(a.Timed, c.Timed) {
			t.Errorf("%s: seeds 7 and 8 give the same timed list", w.Name)
		}
	}
}

func TestPlanHasWholeBlocksAndEnoughSamples(t *testing.T) {
	for _, w := range workloads {
		round := 1
		switch {
		case w.Burst > 0:
			round = w.Burst
		case !w.synthetic:
			round = len(paperOps)
		}
		if w.Block%round != 0 || w.TraceOps%round != 0 || w.TraceOps > minBlocks*w.Block {
			t.Errorf("%s: blocks of %d and %d trace ops are not whole rounds of %d", w.Name, w.Block, w.TraceOps, round)
		}
		for _, seconds := range []int{1, 30, 45} {
			p := w.MakePlan(1, seconds)
			if len(p.Timed) < minSamples || len(p.Timed) < minBlocks*w.Block || len(p.Timed)%w.Block != 0 {
				t.Errorf("%s at %ds: %d timed ops, want >= %d in >= %d whole blocks of %d",
					w.Name, seconds, len(p.Timed), minSamples, minBlocks, w.Block)
			}
			if len(p.Warmups) != setups {
				t.Errorf("%s: %d warm-ups, want %d", w.Name, len(p.Warmups), setups)
			}
		}
	}
	w, _ := workloadByName("paper-circuits")
	p := w.MakePlan(3, 30)
	for r := 0; r < len(p.Timed); r += len(paperOps) {
		seen := map[Op]bool{}
		for _, op := range p.Timed[r : r+len(paperOps)] {
			seen[op] = true
		}
		if len(seen) != len(paperOps) {
			t.Fatalf("round %d is not a permutation of the paper circuits: %v", r/len(paperOps), p.Timed[r:r+len(paperOps)])
		}
	}
	for _, warm := range p.Warmups {
		if warm[0] != paperOps[0] || warm[1] == paperOps[0] {
			t.Errorf("warm-up %v does not start with aes:1 and then a 2^16 circuit", warm)
		}
	}
}

// Cache-on workloads must never repeat a statement, warm-ups included,
// or the proof cache would answer instead of the prover.
func TestCacheOnWorkloadsNeverRepeatAStatement(t *testing.T) {
	for _, w := range workloads {
		if !w.CacheOn {
			continue
		}
		for seed := int64(1); seed <= 20; seed++ {
			p := w.MakePlan(seed, 30)
			all := append([]Op(nil), p.Timed...)
			for _, warm := range p.Warmups {
				all = append(all, warm...)
			}
			seen := map[Op]bool{}
			for _, op := range all {
				if op.Circuit != "synthetic" || op.N%2 != 0 || op.N < synthMin || op.N > synthMax {
					t.Fatalf("%s seed %d: %v is not an even synthetic n in [%d, %d]", w.Name, seed, op, synthMin, synthMax)
				}
				if seen[op] {
					t.Fatalf("%s seed %d: %v repeats", w.Name, seed, op)
				}
				seen[op] = true
			}
		}
	}
}

// The synthetic generator adds constraints two at a time: an odd n
// builds the same statement as n+1, while distinct even n differ. This
// is why plans draw even n only.
func TestSyntheticStatementsDifferOnlyAcrossEvenN(t *testing.T) {
	digest := func(n int) []byte {
		bm, err := nocap.CircuitByName("synthetic", n)
		if err != nil {
			t.Fatal(err)
		}
		d := bm.Inst.Digest()
		return append(d[:0:0], d[:]...)
	}
	if !bytes.Equal(digest(1001), digest(1002)) {
		t.Error("synthetic:1001 and synthetic:1002 should be the same statement")
	}
	if bytes.Equal(digest(1002), digest(1004)) {
		t.Error("synthetic:1002 and synthetic:1004 should differ")
	}
}

// The cost classes the workloads rely on: aes:1 pads to 2^17
// constraints, the other paper circuits and the synthetic range to 2^16
// (with 2^17 variables for synthetic).
func TestPaddedSizes(t *testing.T) {
	ops := append([]Op{{"synthetic", synthMin + 1}, {"synthetic", synthMax}}, paperOps...)
	for _, op := range ops {
		bm, err := nocap.CircuitByName(op.Circuit, op.N)
		if err != nil {
			t.Fatal(err)
		}
		wantLog := 16
		if op.Circuit == "aes" {
			wantLog = 17
		}
		if got := bm.Inst.LogConstraints(); got != wantLog {
			t.Errorf("%v pads to 2^%d constraints, want 2^%d", op, got, wantLog)
		}
		if op.Circuit == "synthetic" && bm.Inst.LogVars() != 17 {
			t.Errorf("%v pads to 2^%d variables, want 2^17", op, bm.Inst.LogVars())
		}
	}
}

func TestReferenceOutputsMatchCircuits(t *testing.T) {
	for _, op := range []Op{{"aes", 1}, {"aes", 2}, {"sha", 1}, {"sha", 2}} {
		bm, err := nocap.CircuitByName(op.Circuit, op.N)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := referenceOutputs(op)
		if !ok || !bytes.Equal(bm.Outputs, want) {
			t.Errorf("%v: circuit outputs %x, standard library %x", op, bm.Outputs, want)
		}
	}
}

func TestFlipFieldBitBreaksTheProof(t *testing.T) {
	bm, err := nocap.CircuitByName("synthetic", 1024)
	if err != nil {
		t.Fatal(err)
	}
	params := nocap.TestParams()
	proof, err := nocap.Prove(params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := nocap.MarshalProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := flipFieldBit(raw)
	if err != nil {
		t.Fatal(err)
	}
	if diff := bytesDiffer(raw, bad); diff != 1 {
		t.Fatalf("%d bytes differ, want 1", diff)
	}
	p, err := nocap.UnmarshalProof(bad)
	if err == nil {
		err = nocap.Verify(params, bm.Inst, bm.IO, p)
	}
	if err == nil {
		t.Error("a proof with a flipped field-element bit verified")
	}
}

func bytesDiffer(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
