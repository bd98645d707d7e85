package bench

import (
	"strings"
	"testing"
	"time"

	"aspectpar/internal/sieve"
)

func tinyParams(filters int) sieve.Params {
	p := sieve.PaperParams(filters)
	p.Max = 100_000
	p.Packs = 8
	return p
}

func TestTable1ListsAllVariants(t *testing.T) {
	out := Table1()
	for _, v := range sieve.Variants() {
		if !strings.Contains(out, string(v)) {
			t.Errorf("Table1 missing %s:\n%s", v, out)
		}
	}
	if !strings.Contains(out, "Pipeline") || !strings.Contains(out, "MPP") {
		t.Errorf("Table1 missing columns:\n%s", out)
	}
}

func TestFig16ReducedScale(t *testing.T) {
	series, err := Fig16([]int{1, 3}, 1, tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Errorf("%s has %d points", s.Name, len(s.Points))
		}
	}
	summary := OverheadSummary(series)
	if !strings.Contains(summary, "%") {
		t.Errorf("summary = %q", summary)
	}
	if OverheadSummary(series[:1]) != "" {
		t.Error("OverheadSummary with wrong arity should be empty")
	}
}

func TestFig17ReducedScale(t *testing.T) {
	series, err := Fig17([]int{2}, 1, tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(sieve.Variants()) {
		t.Fatalf("series = %d", len(series))
	}
	table := FormatTable("Figure 17", series)
	if !strings.Contains(table, "FarmMPP") || !strings.Contains(table, "2") {
		t.Errorf("table:\n%s", table)
	}
	chart := FormatChart("Figure 17", series, 8)
	if !strings.Contains(chart, "filters") || !strings.Contains(chart, "A = ") {
		t.Errorf("chart:\n%s", chart)
	}
}

func TestPackingAblationReducedScale(t *testing.T) {
	series, err := PackingAblation(4, []int{2}, 1, tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	if !strings.Contains(series[1].Name, "packing") {
		t.Errorf("name = %q", series[1].Name)
	}
}

func TestImbalanceAblationReducedScale(t *testing.T) {
	series, err := ImbalanceAblation(4, 8, 1, tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("series = %d", len(series))
	}
	// Under skew neither adaptive schedule may lose to the static farm.
	static, dynamic, stealing := series[3].Points[0].Median, series[4].Points[0].Median, series[5].Points[0].Median
	if dynamic > static {
		t.Errorf("dynamic (%v) slower than static (%v) under skew", dynamic, static)
	}
	if stealing > static {
		t.Errorf("stealing (%v) slower than static (%v) under skew", stealing, static)
	}
}

func TestScheduleSweepReducedScale(t *testing.T) {
	series, err := ScheduleSweep([]int{2, 4}, 8, 1, tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Errorf("%s has %d points", s.Name, len(s.Points))
		}
	}
	if !strings.Contains(series[2].Name, "stealing") {
		t.Errorf("third series = %q, want the stealing column", series[2].Name)
	}
	// The stealing column must not lose to the static one at any filter count.
	for i, pt := range series[2].Points {
		if st := series[0].Points[i].Median; pt.Median > st {
			t.Errorf("stealing (%v) slower than static (%v) at %d filters", pt.Median, st, pt.Filters)
		}
	}
}

func TestRunMedianOddEven(t *testing.T) {
	pt, err := runMedian(sieve.Seq, tinyParams(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Median <= 0 {
		t.Errorf("median = %v", pt.Median)
	}
	// runs < 1 coerces to 1
	pt2, err := runMedian(sieve.Seq, tinyParams(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pt2.Median != pt.Median {
		t.Errorf("deterministic medians differ: %v vs %v", pt.Median, pt2.Median)
	}
}

func TestFormatChartEmpty(t *testing.T) {
	out := FormatChart("empty", nil, 4)
	if !strings.Contains(out, "no data") {
		t.Errorf("out = %q", out)
	}
}

func TestFormatTableSyntheticSeries(t *testing.T) {
	series := []Series{
		{Name: "a", Points: []Point{{Filters: 1, Median: time.Second}, {Filters: 4, Median: 2 * time.Second}}},
		{Name: "b", Points: []Point{{Filters: 4, Median: 500 * time.Millisecond}}},
	}
	out := FormatTable("T", series)
	if !strings.Contains(out, "1.000s") || !strings.Contains(out, "0.500s") {
		t.Errorf("out:\n%s", out)
	}
	chart := FormatChart("C", series, 6)
	if !strings.Contains(chart, "B = b") {
		t.Errorf("chart:\n%s", chart)
	}
}

// TestStreamThroughputCountsMeasuredHops pins the streaming cell's hop
// counter to the measured window: the 3-stage chain has two inner stage
// boundaries, so exactly two node-side hops per measured frame — the
// warm-up's hops are not included.
func TestStreamThroughputCountsMeasuredHops(t *testing.T) {
	const frames = 120
	pt, err := StreamThroughput(frames, 64, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * frames); pt.PeerForwards != want {
		t.Errorf("PeerForwards = %d for %d frames, want exactly %d", pt.PeerForwards, frames, want)
	}
	if pt.FramesPerSec <= 0 {
		t.Errorf("FramesPerSec = %v", pt.FramesPerSec)
	}
}
