package experiments

import (
	"fmt"
	"strings"

	"repro/internal/tabtext"
)

// Table is a rendered experiment result: a titled grid plus free-form
// notes (aggregates, paper comparisons).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends one row; the cell count must match the column count.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	tabtext.WriteAligned(&sb, append([][]string{t.Columns}, t.Rows...))
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}
