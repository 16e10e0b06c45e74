package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// jsonTable is the machine-readable form of a Table.
type jsonTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// MarshalJSON renders the table as a stable JSON object.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonTable{
		ID:      t.ID,
		Title:   t.Title,
		Columns: t.Columns,
		Rows:    t.Rows,
		Notes:   t.Notes,
	})
}

// UnmarshalJSON restores a table from its JSON form.
func (t *Table) UnmarshalJSON(data []byte) error {
	var jt jsonTable
	if err := json.Unmarshal(data, &jt); err != nil {
		return err
	}
	for i, row := range jt.Rows {
		if len(row) != len(jt.Columns) {
			return fmt.Errorf("experiments: row %d has %d cells for %d columns", i, len(row), len(jt.Columns))
		}
	}
	t.ID, t.Title, t.Columns, t.Rows, t.Notes = jt.ID, jt.Title, jt.Columns, jt.Rows, jt.Notes
	return nil
}

// EncodeJSON renders a set of tables as an indented JSON document keyed
// "tables", suitable for downstream tooling.
func EncodeJSON(tables []*Table) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string][]*Table{"tables": tables}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
