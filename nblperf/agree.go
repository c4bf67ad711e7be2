package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkDef is the part of BENCHMARK.json -agree reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agree compares two sets of plain-run results, written by -json into
// dirA and dirB, per (end-to-end metric, workload): each set's median
// and quartiles, and a verdict on B against A. It reports whether any
// verdict is "worse".
func agree(benchPath, dirA, dirB string, out io.Writer) (bool, error) {
	blob, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(blob, &def); err != nil {
		return false, fmt.Errorf("parsing %s: %w", benchPath, err)
	}
	a, err := loadRecords(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return false, err
	}
	worse := false
	fmt.Fprintf(out, "%-16s %-13s %4s %-34s %4s %-34s %s\n",
		"metric", "workload", "n(A)", "A median [q1, q3]", "n(B)", "B median [q1, q3]", "verdict")
	for _, m := range def.EndToEnd {
		for _, w := range def.Workloads {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			v := judge(va, vb, m.Better == "higher", m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(out, "%-16s %-13s %4d %-34s %4d %-34s %s\n",
				m.Name, w.Name, len(va), summary(va), len(vb), summary(vb), v)
		}
	}
	return worse, nil
}

// judge rules on set b against set a for a metric with the given
// direction and bound (the share of a's median by which b's median may
// be worse):
//
//   - "unresolved" when a's own quartile spread exceeds the bound and
//     not every run of b beats every run of a — the noise is wider than
//     the change the bound allows;
//   - "worse" when b's median is worse than a's by more than the bound;
//   - "within" otherwise.
func judge(a, b []float64, higherBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	q1, ma, q3 := quartiles(a)
	mb := median(b)
	// worsening is b's change against a in the "worse" direction, as a
	// share of a's median (absolute when that median is 0).
	base := ma
	if base == 0 {
		base = 1
	}
	worsening := (mb - ma) / base
	if higherBetter {
		worsening = -worsening
	}
	if (q3-q1)/base > bound && !dominates(b, a, higherBetter) {
		return "unresolved"
	}
	if worsening > bound {
		return "worse"
	}
	return "within"
}

// dominates reports whether every value of x is better than every
// value of y.
func dominates(x, y []float64, higherBetter bool) bool {
	for _, xv := range x {
		for _, yv := range y {
			if (higherBetter && xv <= yv) || (!higherBetter && xv >= yv) {
				return false
			}
		}
	}
	return true
}

func summary(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// recordSet holds the plain-run records of one directory.
type recordSet []record

func loadRecords(dir string) (recordSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var set recordSet
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		if r.Trace == 0 {
			set = append(set, r)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no plain-run results (-json, -trace 0) in %s", dir)
	}
	return set, nil
}

func (s recordSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}
