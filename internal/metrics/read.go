package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one series line of a scrape.
type Sample struct {
	Name   string
	Labels map[string]string // nil for an unlabeled series
	Value  float64
}

// Read parses text exposition format into its samples, in scrape order.
// Comment and blank lines are skipped; a malformed line is an error.
func Read(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", n, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseSample parses `name{k="v",...} value` (the label block optional).
func parseSample(line string) (Sample, error) {
	var s Sample
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name, line = line[:i], line[i:]
	if line[0] == '{' {
		s.Labels = make(map[string]string)
		line = line[1:]
		for !strings.HasPrefix(line, "}") {
			key, rest, ok := strings.Cut(line, "=")
			if !ok {
				return s, fmt.Errorf("label without value in %s", s.Name)
			}
			quoted, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return s, fmt.Errorf("label %s of %s: %w", key, s.Name, err)
			}
			if s.Labels[key], err = strconv.Unquote(quoted); err != nil {
				return s, err
			}
			line = strings.TrimPrefix(rest[len(quoted):], ",")
		}
		line = line[1:]
	}
	val, ok := strings.CutPrefix(line, " ")
	if !ok {
		return s, fmt.Errorf("no value in %s", s.Name)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return s, fmt.Errorf("value of %s: %w", s.Name, err)
	}
	s.Value = v
	return s, nil
}
