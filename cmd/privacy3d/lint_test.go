package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacy3d/internal/sdc"
	"privacy3d/internal/sdcquery"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestMethodTableGolden pins the generated registry table: `privacy3d schema
// -methods`, the README/EXPERIMENTS "Protection methods" sections and this
// golden file are all the same sdc.MarkdownTable() output. Registering,
// renaming or re-documenting a method fails this test until the golden (and
// therefore the docs) are regenerated with -update.
func TestMethodTableGolden(t *testing.T) {
	got := sdc.MarkdownTable()
	path := filepath.Join("testdata", "methods.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("registry table drifted from %s; run `go test ./cmd/privacy3d -run TestMethodTableGolden -update` and refresh the README/EXPERIMENTS sections\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestProtectionTableGolden pins the generated -protect table: the README
// "Query protections" section and this golden file are the same
// sdcquery.ProtectionTable() output. Adding, renaming or re-documenting a
// protection fails this test until the golden (and the README section) are
// regenerated with -update.
func TestProtectionTableGolden(t *testing.T) {
	got := sdcquery.ProtectionTable()
	path := filepath.Join("testdata", "protections.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("protection table drifted from %s; run `go test ./cmd/privacy3d -run TestProtectionTableGolden -update` and refresh the README section\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestProtectionTableFlagsExist asserts the "Extra flags" column of the
// generated -protect table only names flags the serve/query commands
// actually register — the help-text consistency gate for the dp flags
// (-epsilon, -delta, -budget, -principal).
func TestProtectionTableFlagsExist(t *testing.T) {
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	fs.Int("minsize", 3, "")
	fs.String("principal", "", "")
	dpFlags(fs)
	for _, line := range strings.Split(sdcquery.ProtectionTable(), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") ||
			strings.TrimSpace(cells[1]) == "`-protect`" { // header row
			continue
		}
		for _, f := range strings.Split(cells[3], ",") {
			f = strings.TrimSpace(f)
			if f == "" || f == "—" {
				continue
			}
			name := strings.TrimPrefix(f, "-")
			if fs.Lookup(name) == nil {
				t.Errorf("protection table documents flag %q which no CLI command registers", f)
			}
		}
	}
	// And the dp row must document every dp flag the CLI registers.
	table := sdcquery.ProtectionTable()
	for _, name := range []string{"-epsilon", "-delta", "-budget", "-principal"} {
		if !strings.Contains(table, name) {
			t.Errorf("protection table missing dp flag %s", name)
		}
	}
}

// TestServeFlagsGolden pins the serve command's full flag surface — name,
// default and usage for every flag, including the sustained-load serving
// knobs (-querylogcap, -cachecap, -ratelimit, -burst) — so the serving
// configuration cannot change silently. Regenerate with -update.
func TestServeFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	serveFlags(fs)
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if f.Name == "ownertoken" {
			def = "" // inherits $PRIVACY3D_OWNER_TOKEN: environment-dependent
		}
		fmt.Fprintf(&b, "-%s (default %q): %s\n", f.Name, def, f.Usage)
	})
	got := b.String()
	path := filepath.Join("testdata", "serveflags.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("serve flag surface drifted from %s; run `go test ./cmd/privacy3d -run TestServeFlagsGolden -update` and refresh the README serving section\n got:\n%s\nwant:\n%s", path, got, want)
	}
	// The sustained-load knobs must stay registered under their documented
	// names — the README and DESIGN serving chapters reference them.
	for _, name := range []string{"querylogcap", "cachecap", "ratelimit", "burst", "batchmax"} {
		if fs.Lookup(name) == nil {
			t.Errorf("serve is missing the documented -%s flag", name)
		}
	}
}

// TestHelpListsEveryMethod asserts the CLI help is generated from the
// registries: the mask -method help and the top-level usage name every sdc
// method, and the -protect help names every query protection.
func TestHelpListsEveryMethod(t *testing.T) {
	maskHelp := "protection method: " + strings.Join(sdc.Names(), ", ")
	for _, name := range sdc.Names() {
		if !strings.Contains(maskHelp, name) {
			t.Errorf("mask -method help missing %q", name)
		}
	}
	help := protectHelp("protection to serve under")
	for _, name := range sdcquery.ProtectionNames() {
		if !strings.Contains(help, name) {
			t.Errorf("-protect help missing %q", name)
		}
	}
	// Every documented method must actually resolve, and vice versa every
	// registered method must carry a non-empty schema for the table.
	for _, m := range sdc.List() {
		s := m.Params()
		if s.Doc == "" || s.Class == "" || s.DefaultTarget == "" {
			t.Errorf("method %s: incomplete schema %+v", s.Name, s)
		}
		if _, err := sdc.Lookup(s.Name); err != nil {
			t.Errorf("listed method %s does not resolve: %v", s.Name, err)
		}
	}
}
