// Package textplot renders the experiment results as aligned ASCII tables,
// CSV, and simple terminal line plots, so every figure and table of the
// paper can be regenerated on a terminal without plotting dependencies.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v, floats with %.6g.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			if math.IsNaN(x) {
				row[i] = "-"
			} else {
				row[i] = fmt.Sprintf("%.6g", x)
			}
		case float32:
			row[i] = fmt.Sprintf("%.6g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the aligned table.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting; intended for
// numeric experiment output).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteString("\n")
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Plot renders series of (x, y) points as a fixed-size ASCII chart. All
// series share the x values.
type Plot struct {
	title  string
	xlabel string
	ylabel string
	xs     []float64
	series []series
}

type series struct {
	name   string
	ys     []float64
	marker byte
}

// NewPlot creates a plot with the given axis labels.
func NewPlot(title, xlabel, ylabel string, xs []float64) *Plot {
	return &Plot{title: title, xlabel: xlabel, ylabel: ylabel, xs: xs}
}

var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// AddSeries adds a named series; ys must have the same length as xs.
func (p *Plot) AddSeries(name string, ys []float64) {
	if len(ys) != len(p.xs) {
		panic(fmt.Sprintf("textplot: series %q has %d points, want %d", name, len(ys), len(p.xs)))
	}
	p.series = append(p.series, series{
		name: name, ys: ys, marker: markers[len(p.series)%len(markers)],
	})
}

// String renders the chart (height 16, width tracks the x count).
func (p *Plot) String() string {
	const height = 16
	if len(p.xs) == 0 || len(p.series) == 0 {
		return p.title + " (no data)\n"
	}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range p.series {
		for _, y := range s.ys {
			if math.IsNaN(y) {
				continue
			}
			ymin = math.Min(ymin, y)
			ymax = math.Max(ymax, y)
		}
	}
	if math.IsInf(ymin, 1) {
		return p.title + " (no finite data)\n"
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	width := len(p.xs)*6 + 1
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range p.series {
		for i, y := range s.ys {
			if math.IsNaN(y) {
				continue
			}
			row := int(math.Round((ymax - y) / (ymax - ymin) * float64(height-1)))
			col := i * 6
			grid[row][col] = s.marker
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", p.title)
	for r, line := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%8.3g", ymax)
		} else if r == height-1 {
			label = fmt.Sprintf("%8.3g", ymin)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, strings.TrimRight(string(line), " "))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	// X tick labels.
	var ticks strings.Builder
	for _, x := range p.xs {
		ticks.WriteString(fmt.Sprintf("%-6.3g", x))
	}
	fmt.Fprintf(&b, "%s  %s  (%s)\n", strings.Repeat(" ", 8), ticks.String(), p.xlabel)
	for _, s := range p.series {
		fmt.Fprintf(&b, "%s   %c = %s (%s)\n", strings.Repeat(" ", 8), s.marker, s.name, p.ylabel)
	}
	return b.String()
}
