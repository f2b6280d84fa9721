// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV) from this reproduction's pipeline. Each
// experiment is a named runner that returns one or more printable tables,
// which cmd/bench prints. Tables carry counts only — bytes, planes, reads,
// hit rates, errors, accuracy; wall clock is measured by the repository
// benchmark (benchmark/) and the kernels' package-local Benchmark functions,
// never here. DESIGN.md §3 maps experiment ids to paper artifacts.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Table is a printable experiment result: the series or matrix behind one
// paper figure or table.
type Table struct {
	// ID is the experiment id ("fig2", "tab2", ...).
	ID string
	// Title describes the artifact being reproduced.
	Title string
	// Note carries caveats (scale substitutions, training configs).
	Note string
	// Columns are the column headers.
	Columns []string
	// Rows hold formatted cells; each row has len(Columns) cells.
	Rows [][]string
}

// AddRow appends a row, formatting each value: floats in compact scientific
// notation, everything else via fmt.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		case float32:
			row[i] = formatFloat(float64(x))
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 0.01 && av < 100000:
		s := fmt.Sprintf("%.4f", v)
		s = strings.TrimRight(s, "0")
		return strings.TrimRight(s, ".")
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "   %s\n", t.Note); err != nil {
			return err
		}
	}
	printRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := printRow(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := printRow(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := printRow(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV writes the table as CSV to w: a comment line with the title,
// the header row, then the data rows.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFiles writes each table of one experiment as a CSV file under dir
// (created if needed) and returns the file paths: <id>.csv for a single
// table, <id>_<i>.csv when the experiment produced several.
func WriteCSVFiles(tables []*Table, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for i, t := range tables {
		name := t.ID
		if len(tables) > 1 {
			name = fmt.Sprintf("%s_%d", t.ID, i)
		}
		path := filepath.Join(dir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
