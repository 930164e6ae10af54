// Command lifevet runs the project-invariant static-analysis suite
// (internal/lifevet) over the module: lock discipline, duration overflow
// and dropped errors. It exits non-zero when any diagnostic survives
// suppression, so CI can gate on it. The only suppression is a
// positional //lifevet:allow directive at the site, and a directive that
// suppresses nothing is itself a finding.
//
// Usage:
//
//	lifevet [-json findings.json] [-vet] [-gofmt] [packages...]
//
// With no package patterns it analyzes ./... . The -vet and -gofmt
// flags fold the stock toolchain hygiene checks into the same gate, so
// one CI step owns "static analysis is clean".
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"liferaft/internal/lifevet"
)

func main() {
	jsonPath := flag.String("json", "", "write diagnostics as a JSON array to this file (empty array when clean)")
	withVet := flag.Bool("vet", false, "also run `go vet` on the analyzed packages and fail on any report")
	withGofmt := flag.Bool("gofmt", false, "also assert `gofmt -l .` reports no files")
	listChecks := flag.Bool("checks", false, "list registered analyzers and exit")
	flag.Parse()

	if *listChecks {
		for _, a := range lifevet.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-16s %s\n", lifevet.StaleDirectiveCheck, "meta: //lifevet:allow directives that suppress nothing fail the run")
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false

	mod, err := lifevet.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lifevet: %v\n", err)
		os.Exit(2)
	}
	res := lifevet.Run(mod, lifevet.Analyzers())

	for _, d := range res.Diagnostics {
		fmt.Println(d)
	}
	if *jsonPath != "" {
		diags := res.Diagnostics
		if diags == nil {
			diags = []lifevet.Diagnostic{}
		}
		buf, err := json.MarshalIndent(diags, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lifevet: writing %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
	}
	if len(res.Diagnostics) > 0 {
		fmt.Fprintf(os.Stderr, "lifevet: %d finding(s), %d suppressed by directives\n", len(res.Diagnostics), res.Suppressed)
		failed = true
	}

	if *withVet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "go vet:\n%s", out.String())
			failed = true
		}
	}
	if *withGofmt {
		cmd := exec.Command("gofmt", "-l", ".")
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gofmt -l: %v\n", err)
			failed = true
		} else if files := strings.TrimSpace(string(out)); files != "" {
			fmt.Fprintf(os.Stderr, "gofmt -l reports unformatted files:\n%s\n", files)
			failed = true
		}
	}

	if failed {
		os.Exit(1)
	}
}
