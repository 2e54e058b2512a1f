package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"repro/internal/heatmap"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// The checks compare what a client saw with what the program answers
// in process. Each returns nil on a bit-exact match.

func checkValue(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: got %v, want %v", what, got, want)
	}
	return nil
}

func checkValues(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if err := checkValue(fmt.Sprintf("%s[%d]", what, i), got[i], want[i]); err != nil {
			return err
		}
	}
	return nil
}

func checkGrid(what string, got, want *heatmap.Grid) error {
	if got == nil || want == nil {
		return fmt.Errorf("%s: missing grid", what)
	}
	if got.Cols != want.Cols || got.Rows != want.Rows || got.Region != want.Region || math.Float64bits(got.T) != math.Float64bits(want.T) {
		return fmt.Errorf("%s: grid header %dx%d %v t=%v, want %dx%d %v t=%v",
			what, got.Cols, got.Rows, got.Region, got.T, want.Cols, want.Rows, want.Region, want.T)
	}
	return checkValues(what, got.Values, want.Values)
}

// checkMessage compares two wire messages by their binary encoding.
func checkMessage(what string, got, want wire.Message) error {
	g, err := wire.Binary.Encode(got)
	if err != nil {
		return fmt.Errorf("%s: encode: %v", what, err)
	}
	w, err := wire.Binary.Encode(want)
	if err != nil {
		return fmt.Errorf("%s: encode: %v", what, err)
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%s: %d-byte answer differs from the %d-byte reference", what, len(g), len(w))
	}
	return nil
}

// checkTuples compares two multisets of tuples bit for bit.
func checkTuples(what string, got, want tuple.Batch) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d tuples, want %d", what, len(got), len(want))
	}
	g, w := sortedBits(got), sortedBits(want)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("%s: tuple sets differ", what)
		}
	}
	return nil
}

func sortedBits(b tuple.Batch) [][4]uint64 {
	out := make([][4]uint64, len(b))
	for i, r := range b {
		out[i] = [4]uint64{math.Float64bits(r.T), math.Float64bits(r.X), math.Float64bits(r.Y), math.Float64bits(r.S)}
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
