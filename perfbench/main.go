// Command perfbench is the repository's benchmark. It runs one named
// workload closed loop — one operation at a time, back to back — for a set
// number of seconds with tracing off, checks every operation's results,
// and prints the end-to-end metrics. With -trace 1 it then makes a
// separate traced run and fixture timings that split the time by layer.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload canteen_hour --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. `perfbench compare old.json
// new.json` compares two result files written with -out.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: perfbench compare old.json new.json")
			return 2
		}
		if err := compare(stdout, args[1], args[2]); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; every world and run seed derives from it")
	seconds := fs.Float64("seconds", 20, "how long the untraced measurement runs")
	trace := fs.Int("trace", 0, "1 adds the traced run and the per-layer metrics")
	out := fs.String("out", "", "also write the full result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds >= 0\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := defaultOptions(wl, *seed, *seconds, *trace == 1)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *trace)
	rep, err := bench(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.Provenance = currentProvenance(root)
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: write result:", err)
			return 1
		}
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

//go:embed baseline.json
var baselineJSON []byte

// baseline is what baseline.json records: the result digests at the commit
// that defined the benchmark, keyed by workload and then by seed.
type baseline struct {
	Digests map[string]map[string]string `json:"digests"`
}

func recordedDigest(workload string, seed int64) string {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return ""
	}
	return b.Digests[workload][fmt.Sprint(seed)]
}

// metricValue is one reported metric; Summary is set for sampled ones.
type metricValue struct {
	Name    string   `json:"name"`
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Summary *summary `json:"summary,omitempty"`
}

// report is one invocation's result.
type report struct {
	Workload   string        `json:"workload"`
	Seed       int64         `json:"seed"`
	Seconds    float64       `json:"seconds"`
	Trace      bool          `json:"trace"`
	Provenance provenance    `json:"provenance"`
	Digest     string        `json:"digest"`
	Recorded   string        `json:"recorded_digest,omitempty"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	Failures   []string      `json:"failures,omitempty"`
	Metrics    []metricValue `json:"metrics"`
}

func (r *report) set(name string, v float64) {
	r.Metrics = append(r.Metrics, metricValue{Name: name, Value: v, Unit: unitOf(name)})
}

func (r *report) setSampled(name string, samples []float64) {
	s := summarize(samples)
	r.Metrics = append(r.Metrics, metricValue{Name: name, Value: s.Median, Unit: unitOf(name), Summary: &s})
}

func (r *report) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// print writes the human-readable lines, then the result line: the
// end-to-end metrics, or with tracing the per-layer ones.
func (r *report) print(w io.Writer) error {
	p := r.Provenance
	fmt.Fprintf(w, "provenance cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s source=%s seed=%d\n",
		p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Commit, p.Source, r.Seed)
	status := "unrecorded"
	switch {
	case r.Recorded == "":
	case r.Recorded == r.Digest:
		status = "match"
	default:
		status = "CHANGED"
	}
	fmt.Fprintf(w, "digest %s seed=%d got=%s recorded=%s %s\n", r.Workload, r.Seed, r.Digest, orDash(r.Recorded), status)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	fail := 0.0
	if r.Attempted > 0 {
		fail = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "metric fail_rate %g ratio (failed %d of %d)\n", fail, r.Failed, r.Attempted)
	for _, m := range r.Metrics {
		if m.Summary != nil {
			fmt.Fprintf(w, "metric %s %.6g %s p25=%.6g p75=%.6g n=%d\n", m.Name, m.Value, m.Unit, m.Summary.P25, m.Summary.P75, m.Summary.N)
		} else {
			fmt.Fprintf(w, "metric %s %.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}

	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = jsonMetric{Value: r.value(d.Name), Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func elapsed(since time.Time) string { return time.Since(since).Round(time.Millisecond).String() }
