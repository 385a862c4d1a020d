// Package graphio reads and writes graphs in a simple text format. Labels
// are persisted as scheme snapshots (core.UnmarshalScheme), not here.
//
// Graph text format (comments with '#', blank lines ignored):
//
//	n <vertexCount>
//	e <u> <v> [weight]
package graphio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// ErrFormat is returned for malformed inputs.
var ErrFormat = errors.New("graphio: malformed input")

// ReadGraph parses the text format.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var g *graph.Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "n":
			if g != nil {
				return nil, fmt.Errorf("%w: line %d: duplicate n directive", ErrFormat, line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: n takes one argument", ErrFormat, line)
			}
			count, err := strconv.Atoi(fields[1])
			if err != nil || count < 0 {
				return nil, fmt.Errorf("%w: line %d: bad vertex count %q", ErrFormat, line, fields[1])
			}
			g = graph.New(count)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("%w: line %d: edge before n directive", ErrFormat, line)
			}
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("%w: line %d: e takes two or three arguments", ErrFormat, line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("%w: line %d: bad endpoints", ErrFormat, line)
			}
			if len(fields) == 4 {
				w, err := strconv.ParseInt(fields[3], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: bad weight %q", ErrFormat, line, fields[3])
				}
				if _, err := g.AddWeightedEdge(u, v, w); err != nil {
					return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
				}
			} else if _, err := g.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
			}
		default:
			return nil, fmt.Errorf("%w: line %d: unknown directive %q", ErrFormat, line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("%w: missing n directive", ErrFormat)
	}
	return g, nil
}

// WriteGraph emits the text format.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for e, edge := range g.Edges {
		var err error
		if g.Weights != nil {
			_, err = fmt.Fprintf(bw, "e %d %d %d\n", edge.U, edge.V, g.Weight(e))
		} else {
			_, err = fmt.Fprintf(bw, "e %d %d\n", edge.U, edge.V)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
