package experiments

import (
	"encoding/json"
	"fmt"
)

// Test-only: the decoder the tests round-trip EncodeJSON through.

// DecodeJSON parses a document produced by EncodeJSON.
func DecodeJSON(data []byte) ([]*Table, error) {
	var doc map[string][]*Table
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	tables, ok := doc["tables"]
	if !ok {
		return nil, fmt.Errorf("experiments: JSON document lacks a tables key")
	}
	return tables, nil
}
