package main

import (
	"reflect"
	"testing"
)

// TestSelectExperiments pins the -run selector: ids match case-insensitively
// with surrounding blanks ignored, 'all' selects everything, unknown ids are
// skipped beside known ones, and a list naming no experiment is an error
// instead of an empty, successful run.
func TestSelectExperiments(t *testing.T) {
	all := map[string]bool{}
	for _, e := range experiments {
		all[e.id] = true
	}
	cases := []struct {
		run  string
		want map[string]bool // nil: an error
	}{
		{"all", all},
		{"ALL", all},
		{"E1", map[string]bool{"E1": true}},
		{"e1, e10", map[string]bool{"E1": true, "E10": true}},
		{"E5,E99", map[string]bool{"E5": true}},
		{"E99", nil},
		{"", nil},
		{",", nil},
		{"E", nil},
	}
	for _, c := range cases {
		got, err := selectExperiments(c.run)
		if c.want == nil {
			if err == nil {
				t.Errorf("-run %q: selected %v, want an error", c.run, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("-run %q: %v", c.run, err)
		} else if !reflect.DeepEqual(got, c.want) {
			t.Errorf("-run %q: selected %v, want %v", c.run, got, c.want)
		}
	}
}
