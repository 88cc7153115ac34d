// Command servebench is the repository's served-path benchmark. It starts
// nocap-serve as its own process, drives it over loopback HTTP with a
// fixed, seeded list of operations, checks every output apart from the
// server, and prints one JSON result line. With --trace 1 it instead
// reports per-layer times from a traced in-process replay. See README.md.
//
// Run it from the repository root through servebench/run.sh, which builds
// both programs first:
//
//	bash servebench/run.sh --workload paper-circuits --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"nocap"
)

type opts struct {
	root, bin, work string
	seed            int64
	seconds         int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o         opts
		name      string
		trace     int
		summarize bool
	)
	flag.StringVar(&name, "workload", "", "workload: paper-circuits | synthetic-distinct | async-burst")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the operation list")
	flag.IntVar(&o.seconds, "seconds", 30, "nominal length of the timed phase; sizes the operation list")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the nocap-serve binary")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for data dirs and span files")
	flag.BoolVar(&summarize, "summarize", false, "read result lines on stdin and print each metric's median, quartiles and spread")
	flag.Parse()
	if summarize {
		if err := summarizeRuns(os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(name)
	if !ok || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "servebench: need --workload (one of %s), --trace 0|1 and --seconds >= 1\n", workloadNames())
		return 2
	}
	plan := w.MakePlan(o.seed, o.seconds)
	env, err := json.Marshal(map[string]any{"env": environment(w, o, trace == 1, plan)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(env))

	var res result
	if trace == 1 {
		res, err = traceRun(w, plan, o)
	} else {
		res, err = e2eRun(w, plan, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// start launches the workload's server configuration; setup numbers the
// set-up so that every data directory is fresh.
func (w *Workload) start(o opts, setup int) (*server, error) {
	dataDir := ""
	if w.DataDir {
		dataDir = filepath.Join(o.work, "data", fmt.Sprintf("%s-%d-%d", w.Name, os.Getpid(), setup))
	}
	return startServer(filepath.Join(o.bin, "nocap-serve"), w.ServerArgs, dataDir)
}

func warmUp(w *Workload, c *client, ops []Op) error {
	for _, s := range w.run(c, ops) {
		if s.Err != nil {
			return fmt.Errorf("warm-up %v: %w", s.Op, s.Err)
		}
	}
	return nil
}

// e2eRun sets the server up `setups` times (launch to /readyz 200 plus
// the warm-up) and times the operation list on the last server, block by
// block. The p50s, the rate and the CPU per proof are medians of the
// per-block figures; the p90 is taken over every sample of the run. It
// then runs the rejection checks against the server, stops it, and
// verifies every proof in this process.
func e2eRun(w *Workload, plan Plan, o opts) (result, error) {
	var setupS []float64
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i, warm := range plan.Warmups {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		s, err := w.start(o, i)
		if err != nil {
			return result{}, err
		}
		srv = s
		c := newClient(s.base)
		err = warmUp(w, c, warm)
		c.close()
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	c := newClient(srv.base)
	defer c.close()
	res := result{Metrics: map[string]metric{}}
	var samples []sample
	var proveMS, sizes []float64
	var blockProve, blockVerify, blockRate, blockCPU []float64
	for _, ops := range w.blocks(plan.Timed) {
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return result{}, err
		}
		t0 := time.Now()
		bs := w.run(c, ops)
		wall := time.Since(t0).Seconds()
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return result{}, err
		}
		var bp, bv []float64
		for _, s := range bs {
			if s.Err != nil {
				res.Failed++
				fmt.Fprintf(os.Stderr, "servebench: %v failed: %v\n", s.Op, s.Err)
				continue
			}
			bp = append(bp, s.ProveMS)
			bv = append(bv, s.VerifyMS)
			sizes = append(sizes, float64(len(s.Proof)))
		}
		if len(bp) == 0 {
			return result{}, fmt.Errorf("every operation of a block failed")
		}
		p50, v50, rate, cpu := median(bp), median(bv), float64(len(bp))/wall, (cpu1-cpu0)*1000/float64(len(bp))
		fmt.Fprintf(os.Stderr, "servebench: block %d: prove p50 %.1f ms, verify p50 %.1f ms, %.3f proofs/s, %.1f CPU ms/proof\n",
			len(blockProve), p50, v50, rate, cpu)
		blockProve = append(blockProve, p50)
		blockVerify = append(blockVerify, v50)
		blockRate = append(blockRate, rate)
		blockCPU = append(blockCPU, cpu)
		proveMS = append(proveMS, bp...)
		samples = append(samples, bs...)
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	res.Attempted = len(samples)
	first := slices.IndexFunc(samples, func(s sample) bool { return s.Err == nil })
	a, f, problems := rejectionChecks(c, samples[first])
	res.Attempted += a
	res.Failed += f
	if err := srv.stop(); err != nil {
		return result{}, err
	}
	problems = append(problems, checkProofs(samples, runtime.GOMAXPROCS(0))...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "servebench: check:", p)
	}
	res.Correct = len(problems) == 0

	p90, ok := tailPercentile(proveMS, 90)
	if !ok {
		return result{}, fmt.Errorf("%d proofs completed; a p90 needs %d", len(proveMS), minSamples)
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("prove_p50_ms", "ms", median(blockProve))
	put("prove_p90_ms", "ms", p90)
	put("verify_p50_ms", "ms", median(blockVerify))
	put("proves_per_s", "1/s", median(blockRate))
	put("cpu_ms_per_proof", "ms", median(blockCPU))
	put("peak_rss_mb", "MB", rss)
	put("proof_bytes", "B", mean(sizes))
	put("setup_s", "s", median(setupS))
	return res, nil
}

// environment records what the numbers depend on besides the code.
func environment(w *Workload, o opts, trace bool, plan Plan) map[string]any {
	p := nocap.DefaultParams()
	model, flags := cpuInfo()
	mix := map[string]int{}
	for _, op := range plan.Timed {
		mix[op.Circuit]++
	}
	return map[string]any{
		"workload":      w.Name,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         trace,
		"commit":        gitCommit(o.root),
		"source_sha256": sourceDigest(o.root),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     model,
		"cpu_flags":     flags,
		"params": map[string]any{
			"rows": p.PCS.Rows, "reps": reps, "zk": p.PCS.ZK, "hash": p.PCS.Engine().Name(),
		},
		"server_args": w.ServerArgs,
		"data_dir":    w.DataDir,
		"clients":     w.Clients,
		"burst":       w.Burst,
		"setups":      len(plan.Warmups),
		"warmup_ops":  w.Warmup,
		"timed_ops":   len(plan.Timed),
		"timed_mix":   mix,
		"trace_ops":   w.TraceOps,
	}
}

// cpuInfo reads the CPU model and whether the flags that select this
// program's wide datapaths are present.
func cpuInfo() (string, map[string]bool) {
	flags := map[string]bool{"avx2": false, "avx512f": false}
	model := "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, flags
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model = strings.TrimSpace(val)
		case "flags":
			for _, fl := range strings.Fields(val) {
				if _, want := flags[fl]; want {
					flags[fl] = true
				}
			}
			return model, flags
		}
	}
	return model, flags
}

// gitCommit reads HEAD from the repository's .git directory, or says the
// tree is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown (" + ref + ")"
}

// sourceDigest hashes the path and content of every Go source and module
// file under root, so a result names the tree it measured even where no
// commit is known.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	slices.Sort(files)
	h := sha256.New()
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// summarizeRuns reads result lines (other lines are skipped) and prints,
// per metric, the median, the quartiles and the spread (q3-q1)/median
// over the runs, plus the failed share of each run.
func summarizeRuns(f *os.File) error {
	values := map[string][]float64{}
	var names []string
	var shares []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	runs := 0
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Metrics == nil {
			continue
		}
		runs++
		shares = append(shares, fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		for name, m := range r.Metrics {
			if _, seen := values[name]; !seen {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if runs == 0 {
		return fmt.Errorf("no result lines on stdin")
	}
	slices.Sort(names)
	fmt.Printf("%d runs; failed/attempted: %s\n", runs, strings.Join(shares, " "))
	fmt.Printf("%-26s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		v := values[name]
		q1, q2, q3 := quartiles(v)
		spread := (q3 - q1) / math.Abs(q2)
		fmt.Printf("%-26s %14.4f %14.4f %14.4f %7.1f%%\n", name, q1, q2, q3, 100*spread)
	}
	return nil
}
