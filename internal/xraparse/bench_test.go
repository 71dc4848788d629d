package xraparse

import "testing"

// BenchmarkParseChain parses the olap workloads' q_chain expression.
func BenchmarkParseChain(b *testing.B) {
	const q = "join[%6 = %7](join[%4 = %5](join[%1 = %3](head, link1), link2), link3)"
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ParseExpression(q); err != nil {
			b.Fatal(err)
		}
	}
}
