package kb_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/kb"
)

// BenchmarkReadSnapshot decodes the knowledge-base section of a session
// after bootstrap and data context, at the serve workloads' size (n=60) and
// at ten times it. MB/s is of the section's bytes.
func BenchmarkReadSnapshot(b *testing.B) {
	for _, n := range []int{60, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := datagen.DefaultConfig()
			cfg.NProperties = n
			sc := datagen.Generate(cfg)
			w := core.BuildScenarioWrangler(sc)
			if _, err := w.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			w.AddDataContext(sc.AddressRef)
			if _, err := w.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := w.KB.WriteSnapshot(&buf); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := kb.ReadSnapshot(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
