package lang_test

import (
	"testing"

	"p4runpro/internal/lang"
	"p4runpro/internal/programs"
)

// FuzzLangCheck drives the compiler front end that every deploy runs on
// source text from the wire: ParseFile, then Check, then Translate of each
// program. Seeds are the Table 1 programs. Property: no stage panics; each
// reports bad input as an error.
func FuzzLangCheck(f *testing.F) {
	for _, s := range programs.All() {
		f.Add(s.DefaultSource())
	}

	f.Fuzz(func(t *testing.T, src string) {
		file, err := lang.ParseFile(src)
		if err != nil {
			return
		}
		if err := lang.Check(file); err != nil {
			return
		}
		for _, p := range file.Programs {
			_, _ = lang.Translate(p, file.Memories)
		}
	})
}
