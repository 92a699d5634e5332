package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzDirectiveText drives the bbvet:allow comment parser with arbitrary
// comment text: it must never panic, must only accept comments that really
// carry the directive, and its payload must be stable under the
// reconstruct-and-reparse round trip.
func FuzzDirectiveText(f *testing.F) {
	for _, seed := range []string{
		"//bbvet:allow floatcmp deliberate exact tie-break",
		"// bbvet:allow maprange order does not reach output",
		"//bbvet:allow",
		"//bbvet:allow  floatcmp \t tabs and  runs",
		"// not a directive",
		"//bbvet:allowfloatcmp smashed prefix",
		"/* bbvet:allow floatcmp block form */",
		"//bbvet:allow statuscheck reason with trailing space ",
		"//", "", "bbvet:allow bare", "//\x00bbvet:allow nul",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, comment string) {
		text, ok := directiveText(comment)
		if !ok {
			if text != "" {
				t.Errorf("directiveText(%q) rejected but returned payload %q", comment, text)
			}
			return
		}
		if text != strings.TrimSpace(text) {
			t.Errorf("directiveText(%q) payload %q is not trimmed", comment, text)
		}
		// Round trip: re-spelling the directive around the extracted
		// payload parses back to the same payload.
		re, ok2 := directiveText("//bbvet:allow " + text)
		if !ok2 || re != text {
			t.Errorf("round trip of payload %q: got %q, ok=%v", text, re, ok2)
		}
	})
}

// FuzzCollectAllows injects arbitrary single-line directive payloads into a
// real parsed file and runs the suppression collector over it: no payload
// may panic it, a well-formed known-analyzer directive must register a
// suppression, and a payload without a reason must surface as malformed.
func FuzzCollectAllows(f *testing.F) {
	for _, seed := range []string{
		"floatcmp deliberate exact compare",
		"nosuchanalyzer some reason",
		"floatcnp typo repair candidate",
		"",
		"floatcmp",
		"ctxflow reason with  interior   runs",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload string) {
		if strings.ContainsAny(payload, "\r\n\x00") {
			t.Skip("not a single-line comment payload")
		}
		src := "package p\n\nfunc f() int {\n\treturn 1 //bbvet:allow " + payload + "\n}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip("payload broke the comment lexically")
		}
		s := collectAllows(&Package{Fset: fset, Files: []*ast.File{file}})
		fields := strings.Fields(payload)
		known := false
		if len(fields) > 0 {
			for _, a := range All() {
				if a.Name == fields[0] {
					known = true
					break
				}
			}
		}
		switch {
		case len(fields) >= 2 && known:
			if len(s.byFileLine["fuzz.go"]) == 0 {
				t.Errorf("well-formed directive %q registered no suppression", payload)
			}
			if len(s.malformed) != 0 {
				t.Errorf("well-formed directive %q reported malformed: %v", payload, s.malformed)
			}
		case len(fields) < 2:
			if len(s.malformed) == 0 {
				t.Errorf("reasonless directive %q not reported as malformed", payload)
			}
		default:
			// Unknown analyzer with a reason: reported, never suppressing.
			if len(s.malformed) == 0 {
				t.Errorf("unknown-analyzer directive %q not reported", payload)
			}
			if len(s.byFileLine["fuzz.go"]) != 0 {
				t.Errorf("unknown-analyzer directive %q registered a suppression", payload)
			}
		}
	})
}
