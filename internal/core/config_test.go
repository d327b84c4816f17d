package core

import (
	"reflect"
	"testing"
)

// TestConfigFieldBudget pins the number of independently settable
// values a deployment has. A new field needs two callers that exist
// without it and want different values; a value with one setting in use
// is a constant beside its reader (ROADMAP.md item 6).
func TestConfigFieldBudget(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 17 {
		t.Fatalf("core.Config has %d fields, budget 17: see ROADMAP.md item 6 before adding (or, after removing, lower the budget)", n)
	}
}
