package core

import (
	"reflect"
	"testing"
)

// settableValues counts the leaf fields of a struct type, descending
// into nested structs: Config.Layout's fields are settable values of a
// deployment just as Config's own are.
func settableValues(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i).Type; f.Kind() == reflect.Struct {
			n += settableValues(f)
		} else {
			n++
		}
	}
	return n
}

// TestConfigFieldBudget pins the number of independently settable
// values a deployment has, nested ones included. A new value needs two
// callers that exist without it and want different settings; a value
// with one setting in use is a constant beside its reader (the knob
// rule of the ROADMAP.md north star).
func TestConfigFieldBudget(t *testing.T) {
	if n := settableValues(reflect.TypeOf(Config{})); n != 19 {
		t.Fatalf("core.Config has %d settable values, budget 19: see the knob rule of the ROADMAP.md north star (\"a knob stays only if measurement shows both settings are needed\") before adding (or, after removing, lower the budget)", n)
	}
}
