package paxoscp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocumentedDaemonFlagsExist keeps the docs' txkvd command lines honest:
// every -flag written after txkvd — on a shell line, one continued with `\`,
// or in an inline `txkvd -x` mention — must be a flag cmd/txkvd defines. A
// flag that is gone from the daemon otherwise lives on in the command lines
// people copy, and the flag package refuses them at startup.
func TestDocumentedDaemonFlagsExist(t *testing.T) {
	defined := daemonFlags(t, "cmd/txkvd/main.go")
	for _, doc := range []string{"README.md", "docs/OPERATIONS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("doc missing: %v", err)
		}
		for _, u := range daemonFlagUses(string(data)) {
			if !defined[u.flag] {
				t.Errorf("%s:%d: txkvd -%s: cmd/txkvd defines no flag %q", doc, u.line, u.flag, u.flag)
			}
		}
	}
}

// TestDaemonFlagUses pins what the drift check reads as a txkvd flag.
func TestDaemonFlagUses(t *testing.T) {
	src := "prose -nope, then `txkvd -a 1` and `./txkvctl -b`\n" +
		"```sh\n" +
		"./txkvd -c x \\\n" +
		"  -d y > log 2>&1 -e &\n" +
		"go run ./cmd/txkvd -f 2; txkvctl -g\n" +
		"txkvd: 12 rows recovered -h\n" +
		"```\n" +
		"`ps | awk '$2==\"txkvd\" && / -i /'`, `txkvd -j -1`\n"
	var got []string
	for _, u := range daemonFlagUses(src) {
		got = append(got, u.flag+"@"+strconv.Itoa(u.line))
	}
	want := []string{"a@1", "c@3", "d@4", "f@5", "j@8"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// daemonFlags returns the names of the flags a command's main file defines
// with the flag package: the first string literal among a flag.* call's first
// two arguments (flag.String("name", …), flag.DurationVar(&v, "name", …)).
func daemonFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		for i, arg := range call.Args {
			lit, ok := arg.(*ast.BasicLit)
			if i < 2 && ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				names[name] = true
				break
			}
		}
		return true
	})
	if !names["dc"] || !names["data-dir"] {
		t.Fatalf("%s: found flags %v, which lacks -dc or -data-dir: the parse is wrong", path, names)
	}
	return names
}

type flagUse struct {
	flag string
	line int
}

var (
	// daemonRe finds txkvd used as a command: at the start, after a space or a
	// path, followed by its arguments.
	daemonRe = regexp.MustCompile("(?:^|[\\s/])txkvd\\s")
	// flagRe finds a -flag or --flag token; a value such as -1 is no flag.
	flagRe = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
)

// daemonFlagUses returns every -flag written after txkvd in a markdown
// document, with the line it is on. Inside fenced blocks a command runs to
// the end of its line, continued lines (`\`) included; outside them only
// inline code spans are read. A command's arguments end at the first shell
// operator (; | & < >).
func daemonFlagUses(src string) []flagUse {
	var uses []flagUse
	scan := func(text string, lineAt func(off int) int) {
		for _, m := range daemonRe.FindAllStringIndex(text, -1) {
			args := text[m[1]:]
			if i := strings.IndexAny(args, ";|&<>"); i >= 0 {
				args = args[:i]
			}
			for _, f := range flagRe.FindAllStringSubmatchIndex(args, -1) {
				uses = append(uses, flagUse{args[f[2]:f[3]], lineAt(m[1] + f[2])})
			}
		}
	}
	lines := strings.Split(src, "\n")
	inFence := false
	for i := 0; i < len(lines); i++ {
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			for j, span := range strings.Split(lines[i], "`") {
				if j%2 == 1 {
					line := i + 1
					scan(span, func(int) int { return line })
				}
			}
			continue
		}
		// Join continued lines, remembering where each one starts.
		first, text, starts := i, lines[i], []int{0}
		for strings.HasSuffix(text, "\\") && i+1 < len(lines) {
			i++
			text = strings.TrimSuffix(text, "\\") + " "
			starts = append(starts, len(text))
			text += lines[i]
		}
		scan(text, func(off int) int {
			return first + sort.Search(len(starts), func(k int) bool { return starts[k] > off })
		})
	}
	return uses
}
