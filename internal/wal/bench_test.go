package wal

import "testing"

// BenchmarkWALAppend appends a twelve-op transaction to a file-backed log
// without syncing: the cost of framing it and the one write.
func BenchmarkWALAppend(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir(), NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ops := twelveOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(uint64(i+1), ops); err != nil {
			b.Fatal(err)
		}
	}
}
