package sweep

import "fmt"

// IndexStrategy is the physical design axis of Fig 8(c): how the graph
// tables and every index relation built over them are stored. The sweep's
// own working tables are always clustered.
type IndexStrategy int

const (
	// ClusteredIndex stores each table as a B+tree on its key (CluIndex).
	ClusteredIndex IndexStrategy = iota
	// SecondaryIndex keeps heaps plus non-clustered B+tree indexes (Index).
	SecondaryIndex
	// NoIndex keeps bare heaps; every probe is a scan.
	NoIndex
)

func (s IndexStrategy) String() string {
	switch s {
	case ClusteredIndex:
		return "CluIndex"
	case SecondaryIndex:
		return "Index"
	case NoIndex:
		return "NoIndex"
	}
	return fmt.Sprintf("IndexStrategy(%d)", int(s))
}
