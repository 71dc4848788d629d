package mra

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests is the gate on the CI workflow's -run lists:
// every alternative of every -run pattern in .github/workflows/ci.yml must
// match at least one test, example or fuzz function of the module.  go test
// passes silently when a -run pattern matches nothing, so a renamed or
// deleted test would otherwise drop out of its CI step unnoticed.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	funcs := regexp.MustCompile(`(?m)^func ((?:Test|Example|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcs.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	patterns := regexp.MustCompile(`-run\s+(?:'([^']*)'|"([^"]*)"|(\S+))`).FindAllStringSubmatch(string(ci), -1)
	checked := 0
	for _, p := range patterns {
		pattern := p[1] + p[2] + p[3]
		for _, alt := range strings.Split(pattern, "|") {
			// Only the top-level name matters; a subtest filter follows "/".
			alt, _, _ = strings.Cut(alt, "/")
			if strings.Trim(alt, "^$") == "" {
				continue // '^$' deliberately runs no test
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run %q: %v", pattern, err)
				continue
			}
			checked++
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("-run %q: %q matches no test function of the module", pattern, alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in ci.yml; the gate would check nothing")
	}
}
