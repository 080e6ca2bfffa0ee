package main

import (
	"fmt"
	"math"
	"sort"
)

// sample is a set of observations of one quantity.
type sample []float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func (s sample) median() float64 { return s.quantile(0.5) }

// tailLadder is the set of percentiles a tail is chosen from. It stops
// at p99: beyond it, with 10⁵ samples of sub-millisecond work, the tail
// measures garbage-collector pauses and host preemption, not the code.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLadder that has at least ten
// observations beyond it, with its label ("p99"); with too few
// observations for any, the median.
func (s sample) tail() (string, float64) {
	for _, p := range tailLadder {
		if float64(len(s))*(1-p/100) >= 10 {
			return fmt.Sprintf("p%g", p), s.quantile(p / 100)
		}
	}
	return "p50", s.median()
}

// summary is the report form of a timing: median, tail and count.
type summary struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50"`
	Tail      float64 `json:"tail"`
	TailLabel string  `json:"tail_label"`
}

func (s sample) summary() summary {
	label, t := s.tail()
	return summary{N: len(s), P50: s.median(), Tail: t, TailLabel: label}
}
