package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
	"time"
)

// CellDiff compares one experiment cell across two manifests.
type CellDiff struct {
	Name         string
	MeanA, MeanB float64
	Delta        float64
	// Identical reports that the raw per-round values (and F1s) match
	// exactly, not just the means.
	Identical bool
	// Volatile marks a cell that is informational only (timings): its delta
	// is shown but excluded from the diff's regression gates.
	Volatile bool
}

// Diff is the comparison of two manifests: the regression check behind
// `arena report`.
type Diff struct {
	A, B  *Manifest
	Cells []CellDiff
	// OnlyA and OnlyB list cell names present in just one manifest.
	OnlyA, OnlyB []string
	// ConfigDiffs lists flag keys whose resolved values differ, rendered
	// "key: a -> b".
	ConfigDiffs []string
	// MaxAbsDelta is the largest |mean delta| across matched cells.
	MaxAbsDelta float64
	// Identical reports that both manifests matched on every cell's raw
	// values with none missing.
	Identical bool
}

// cellKey identifies a cell across manifests: one name may carry several
// metrics (`fuzz -thaw` records cells and failures under "fuzz/thaw").
type cellKey struct{ name, metric string }

// DiffManifests compares b against a (a is the baseline). Cells are
// matched by name and metric, in a's order.
func DiffManifests(a, b *Manifest) *Diff {
	d := &Diff{A: a, B: b, Identical: true}
	bCells := make(map[cellKey]*Cell, len(b.Cells))
	for i := range b.Cells {
		bCells[cellKey{b.Cells[i].Name, b.Cells[i].Metric}] = &b.Cells[i]
	}
	seen := make(map[cellKey]bool, len(a.Cells))
	for i := range a.Cells {
		ca := &a.Cells[i]
		k := cellKey{ca.Name, ca.Metric}
		seen[k] = true
		cb, ok := bCells[k]
		if !ok {
			d.OnlyA = append(d.OnlyA, ca.Name)
			if !ca.Volatile {
				d.Identical = false
			}
			continue
		}
		cd := CellDiff{
			Name:     ca.Name,
			MeanA:    ca.Summary.Mean,
			MeanB:    cb.Summary.Mean,
			Delta:    cb.Summary.Mean - ca.Summary.Mean,
			Volatile: ca.Volatile || cb.Volatile,
			Identical: floatsEqual(ca.Values, cb.Values) &&
				floatsEqual(ca.F1, cb.F1) && ca.Summary == cb.Summary,
		}
		// Volatile cells (timings) are reported but never gate: they neither
		// break Identical nor feed MaxAbsDelta.
		if !cd.Volatile {
			if !cd.Identical {
				d.Identical = false
			}
			if abs := math.Abs(cd.Delta); abs > d.MaxAbsDelta {
				d.MaxAbsDelta = abs
			}
		}
		d.Cells = append(d.Cells, cd)
	}
	for i := range b.Cells {
		if !seen[cellKey{b.Cells[i].Name, b.Cells[i].Metric}] {
			d.OnlyB = append(d.OnlyB, b.Cells[i].Name)
			if !b.Cells[i].Volatile {
				d.Identical = false
			}
		}
	}
	for _, k := range sortedKeys(a.Config, b.Config) {
		if a.Config[k] != b.Config[k] {
			d.ConfigDiffs = append(d.ConfigDiffs,
				fmt.Sprintf("%s: %q -> %q", k, a.Config[k], b.Config[k]))
		}
	}
	return d
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedKeys(ms ...map[string]string) []string {
	set := make(map[string]bool)
	for _, m := range ms {
		for k := range m {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders the diff as the human-readable report the arena
// prints: per-cell accuracy deltas, then timing and counter deltas.
func (d *Diff) WriteText(w io.Writer) {
	fmt.Fprintf(w, "baseline: %s %s (seed %d)\n", d.A.Command, d.A.Start, d.A.Seed)
	fmt.Fprintf(w, "candidate: %s %s (seed %d)\n", d.B.Command, d.B.Start, d.B.Seed)
	if len(d.ConfigDiffs) > 0 {
		fmt.Fprintln(w, "config differences:")
		for _, c := range d.ConfigDiffs {
			fmt.Fprintf(w, "  %s\n", c)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cell\tmean A\tmean B\tdelta\tidentical\n")
	for _, c := range d.Cells {
		id := fmt.Sprintf("%v", c.Identical)
		if c.Volatile {
			id = "volatile"
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%+.4f\t%s\n", c.Name, c.MeanA, c.MeanB, c.Delta, id)
	}
	tw.Flush()
	for _, n := range d.OnlyA {
		fmt.Fprintf(w, "cell only in baseline: %s\n", n)
	}
	for _, n := range d.OnlyB {
		fmt.Fprintf(w, "cell only in candidate: %s\n", n)
	}
	d.writeMetricDeltas(w)
	if d.Identical {
		fmt.Fprintln(w, "accuracy blocks: identical")
	} else {
		fmt.Fprintf(w, "accuracy blocks: differ (max |mean delta| %.4f)\n", d.MaxAbsDelta)
	}
}

func (d *Diff) writeMetricDeltas(w io.Writer) {
	names := make(map[string]bool)
	for n := range d.A.Metrics.Timers {
		names[n] = true
	}
	for n := range d.B.Metrics.Timers {
		names[n] = true
	}
	if len(names) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "timer\ttotal A\ttotal B\tdelta\n")
		for _, n := range sortedSet(names) {
			ta, tb := d.A.Metrics.Timers[n].Total(), d.B.Metrics.Timers[n].Total()
			fmt.Fprintf(tw, "%s\t%v\t%v\t%+v\n", n,
				ta.Round(time.Millisecond), tb.Round(time.Millisecond),
				(tb - ta).Round(time.Millisecond))
		}
		tw.Flush()
	}
	names = make(map[string]bool)
	for n := range d.A.Metrics.Counters {
		names[n] = true
	}
	for n := range d.B.Metrics.Counters {
		names[n] = true
	}
	if len(names) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "counter\tA\tB\tdelta\n")
		for _, n := range sortedSet(names) {
			ca, cb := d.A.Metrics.Counters[n], d.B.Metrics.Counters[n]
			fmt.Fprintf(tw, "%s\t%d\t%d\t%+d\n", n, ca, cb, cb-ca)
		}
		tw.Flush()
	}
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
