package server

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkRoundTrip is one command line over a loopback connection: a point
// select on a 4096-row account relation, and \state, which does no database
// work and so is the fixed per-line cost of wire, session and JSON encoding.
func BenchmarkRoundTrip(b *testing.B) {
	const accounts = 4096
	_, addr := startTestServer(b, accounts, Config{})
	cl, err := Dial(addr, 30*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	run := func(line func(i int) string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := cl.Do(line(i))
				if err != nil || !resp.OK {
					b.Fatalf("%v %+v", err, resp)
				}
			}
		}
	}
	b.Run("point-select", run(func(i int) string {
		return fmt.Sprintf("select balance from account where id = %d;", i%accounts)
	}))
	b.Run("state", run(func(int) string { return `\state` }))
}
