package taskgraph

import (
	"encoding/json"
	"testing"
)

// FuzzReadConfig asserts the parser's contract: arbitrary bytes either
// produce a configuration that passes Validate or an error — never a panic.
// The seed corpus covers the historical failure classes: null graph entries,
// NaN/Inf floats smuggled as JSON strings are rejected by encoding/json, but
// huge integer fields and dangling references decode fine and must be caught
// by validation.
func FuzzReadConfig(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`{"graphs": [null]}`,
		`{"graphs": [{"name": "g", "period": 10,
		  "tasks": [{"name": "a", "processor": "p", "wcet": 1}]}],
		  "processors": [{"name": "p", "replenishment": 5}]}`,
		`{"graphs": [{"name": "g", "period": 1e999,
		  "tasks": [{"name": "a", "processor": "p", "wcet": 1}]}],
		  "processors": [{"name": "p", "replenishment": 5}]}`,
		`{"graphs": [{"name": "g", "period": 10,
		  "tasks": [{"name": "a", "processor": "p", "wcet": 1}],
		  "buffers": [{"name": "b", "from": "a", "to": "missing", "memory": "m"}]}],
		  "processors": [{"name": "p", "replenishment": 5}],
		  "memories": [{"name": "m", "capacity": 100}]}`,
		`{"graphs": [{"name": "g", "period": 10,
		  "tasks": [{"name": "a", "processor": "p", "wcet": 1}],
		  "buffers": [{"name": "b", "from": "a", "to": "a", "memory": "m",
		    "containerSize": 4294967296, "initialTokens": 9999999999}]}],
		  "processors": [{"name": "p", "replenishment": 5}],
		  "memories": [{"name": "m", "capacity": 100}]}`,
		`{"graphs": [{"name": "g", "name": "g"}, {"name": "g"}]}`,
		`{"granularity": -1, "graphs": [{"name": "g", "period": 10, "tasks": []}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("Parse returned nil config and nil error")
		}
		// A parsed configuration must survive the operations the pipeline
		// performs unconditionally.
		if err := c.Validate(); err != nil {
			t.Fatalf("Parse accepted a config Validate rejects: %v", err)
		}
		c.Clone()
		c.MultiRate()
		c.EffectiveGranularity()
		if _, err := json.Marshal(c); err != nil {
			t.Fatalf("accepted config does not round-trip: %v", err)
		}
	})
}

// FuzzReadMapping asserts the same contract for mapping files: parse +
// validate or error, never a panic, and accepted mappings have finite
// non-negative budgets and bounded capacities.
func FuzzReadMapping(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`{"budgets": {"a": 1.5}, "capacities": {"b": 2}, "objective": 3.5}`,
		`{"budgets": {"a": -1}}`,
		`{"budgets": {"a": 1e999}}`,
		`{"capacities": {"b": -3}}`,
		`{"capacities": {"b": 4294967296}}`,
		`{"budgets": null, "capacities": null}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseMapping(data)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("ParseMapping returned nil mapping and nil error")
		}
		for name, b := range m.Budgets {
			if !finite(b) || b < 0 {
				t.Fatalf("accepted mapping has invalid budget %q = %v", name, b)
			}
		}
		for name, cap := range m.Capacities {
			if cap < 0 || cap > maxIntField {
				t.Fatalf("accepted mapping has invalid capacity %q = %d", name, cap)
			}
		}
	})
}
