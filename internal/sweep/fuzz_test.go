package sweep

import "testing"

// FuzzParseSpan feeds arbitrary strings to the span parser that guards
// the HTTP submission boundary. Whatever it accepts must be a non-empty,
// non-negative range whose canonical form is exactly the input, so no
// sign, padding or trailing garbage can alias a different span.
func FuzzParseSpan(f *testing.F) {
	for _, s := range []string{"0-2", "128-256", "0-2-5", "0-2x", " 0-2", "+0-+2", "5-2", "-1-3", "x", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		lo, hi, err := ParseSpan(s)
		if err != nil {
			return
		}
		if lo < 0 || hi <= lo {
			t.Fatalf("ParseSpan(%q) accepted [%d,%d)", s, lo, hi)
		}
		if got := FormatSpan(lo, hi); got != s {
			t.Fatalf("ParseSpan(%q) = [%d,%d), which formats as %q", s, lo, hi, got)
		}
	})
}
