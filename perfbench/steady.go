package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// steadyRuns is how many runs the steadiness report makes of each
// workload, with seeds 1 to steadyRuns.
const steadyRuns = 10

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs each workload of BENCHMARK.json steadyRuns times for
// run_seconds, one seed per run, and prints for every end-to-end metric
// the median, the quartiles and the spread (third minus first quartile,
// over the median) against the metric's bound. A spread under a third
// of the bound is steady.
func steadyMain() int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady: BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	status := 0
	for _, wl := range bf.Workloads {
		w := wl.Name
		values := map[string][]float64{}
		failShares := map[string]bool{}
		for seed := 1; seed <= steadyRuns; seed++ {
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(bf.RunSeconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			var res result
			if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			if !res.Correct {
				status = 1
			}
			failShares[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d\n", w, seed, res.Correct, res.Attempted, res.Failed)
		}
		fmt.Printf("\n%s (%d runs)\n", w, steadyRuns)
		fmt.Printf("  %-26s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			vs := values[m.Name]
			if len(vs) < 2 {
				fmt.Printf("  %-26s missing\n", m.Name)
				status = 1
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := (q3 - q1) / q2
			mark := ""
			if spread > m.Bound/3 {
				mark = "  NOT STEADY"
			}
			fmt.Printf("  %-26s %12.5g %12.5g %12.5g %7.2f%% %7.1f%%%s\n", m.Name, q1, q2, q3, 100*spread, 100*m.Bound, mark)
		}
		fmt.Printf("  failed/attempted shares seen: %v\n\n", keys(failShares))
	}
	return status
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
