package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// breakdownRow is one layer's mean self time per traced sample. The
// layer spans tile each sample's due → delivered interval, so the rows
// sum to the mean end-to-end latency of the traced samples.
type breakdownRow struct {
	Layer  string  `json:"layer"`
	MeanMs float64 `json:"mean_ms"`
	Share  float64 `json:"share"`
}

// breakdown builds the table from per-layer nanosecond sums over n
// traced samples.
func breakdown(layers []string, sums []int64, n int64) []breakdownRow {
	var total int64
	for _, s := range sums {
		total += s
	}
	rows := make([]breakdownRow, 0, len(layers)+1)
	for i, name := range layers {
		rows = append(rows, breakdownRow{
			Layer:  name,
			MeanMs: ms(ratio(float64(sums[i]), float64(n))),
			Share:  ratio(float64(sums[i]), float64(total)),
		})
	}
	return append(rows, breakdownRow{Layer: "sample (sum)", MeanMs: ms(ratio(float64(total), float64(n))), Share: 1})
}

// span is one JSON line of the span file: a layer interval of one
// sample, identified by stream/seq; children name "sample" as parent.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	ID       string `json:"id"`
	Parent   string `json:"parent,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// writeSpans appends the checked streams' traced samples to path as
// JSON lines: one "sample" span (due → delivered) and its four children,
// which share timestamps with each other and with the parent.
func writeSpans(path, workload string, layers [4]string, logs []*checkLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, lg := range logs {
		for _, s := range lg.spans {
			id := fmt.Sprintf("%s/%d", lg.id, s.seq)
			cuts := [5]int64{s.due, s.rel, s.read, s.verdict, s.end}
			lines := []span{{Workload: workload, Name: "sample", ID: id, StartNs: s.due, EndNs: s.end}}
			for i, name := range layers {
				lines = append(lines, span{Workload: workload, Name: name, ID: id, Parent: "sample",
					StartNs: cuts[i], EndNs: cuts[i+1]})
			}
			for _, l := range lines {
				if err := enc.Encode(l); err != nil {
					f.Close()
					return fmt.Errorf("writing spans: %w", err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
