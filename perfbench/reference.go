package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"smokescreen/internal/core"
	"smokescreen/internal/outputs"
	"smokescreen/internal/query"
)

const referencePath = "perfbench/reference.json"

// reference holds exact answers computed from full-corpus detector
// outputs at the model's native resolution. The correctness checks
// compare served bounds against it; it is a file, recomputed by
// "perfbench reference", so the timed batches stay cold.
type reference struct {
	// Means maps "corpus/class" to the per-frame mean count and frame count.
	Means map[string]refMean `json:"means"`
	// Series maps "corpus/class" to per-frame counts, for the corpora
	// streamed in windows.
	Series map[string][]float64 `json:"series"`
}

type refMean struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
}

// referenceCorpora are the (corpus, class) pairs the workloads query;
// seriesCorpora also keep their per-frame series.
var (
	referenceCorpora = []string{"night-street/car", "ua-detrac/car", "ua-detrac/person", "highway/car", "small/car"}
	seriesCorpora    = map[string]bool{"small/car": true}
)

func loadReference() (*reference, error) {
	b, err := os.ReadFile(referencePath)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath, err)
	}
	for _, k := range referenceCorpora {
		if _, ok := ref.Means[k]; !ok {
			return nil, fmt.Errorf("%s: no answer for %s; run perfbench reference", referencePath, k)
		}
	}
	return &ref, nil
}

// referenceMain recomputes reference.json from full detection.
func referenceMain(args []string) int {
	fs := flag.NewFlagSet("reference", flag.ExitOnError)
	out := fs.String("o", referencePath, "output file")
	_ = fs.Parse(args)
	ref := reference{Means: map[string]refMean{}, Series: map[string][]float64{}}
	keys := append([]string(nil), referenceCorpora...)
	sort.Strings(keys)
	for _, k := range keys {
		corpus, class, _ := strings.Cut(k, "/")
		series, err := fullSeries(corpus, class)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench reference:", err)
			return 1
		}
		var sum float64
		for _, x := range series {
			sum += x
		}
		ref.Means[k] = refMean{N: len(series), Mean: sum / float64(len(series))}
		if seriesCorpora[k] {
			ref.Series[k] = series
		}
		logf("%s: %d frames, mean %.6f", k, len(series), sum/float64(len(series)))
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench reference:", err)
		return 1
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench reference:", err)
		return 1
	}
	return 0
}

// fullSeries is the per-frame class count over the whole corpus at the
// default model's native resolution, as the system resolves the query.
func fullSeries(corpus, class string) ([]float64, error) {
	q, err := query.Parse(fmt.Sprintf("SELECT AVG(count(%s)) FROM %s", class, corpus))
	if err != nil {
		return nil, err
	}
	spec, err := core.New().Resolve(q)
	if err != nil {
		return nil, err
	}
	return outputs.Full(context.Background(), spec.Video, spec.Model, spec.Class, spec.Model.NativeInput)
}
