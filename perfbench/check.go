package main

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"webbase/internal/relation"
	"webbase/internal/ur"
)

// answer is the comparable form of one query's answer: the tuple
// multiset plus the maximal objects that were unavailable or skipped.
// Tuples are compared as a digest of their sorted canonical keys.
type answer struct {
	tuples      int
	digest      uint64
	unavailable []string
	skipped     []string
}

// collector accumulates a streamed answer delivery by delivery.
type collector struct {
	keys        []string
	unavailable []string
	skipped     []string
}

func (c *collector) add(d ur.ObjectDelivery) {
	for _, t := range d.Tuples {
		c.keys = append(c.keys, tupleKey(t))
	}
	if d.Failure != nil {
		c.unavailable = append(c.unavailable, failureKey(*d.Failure))
	}
	if d.Skipped != "" {
		c.skipped = append(c.skipped, d.Skipped)
	}
}

func (c *collector) answer() answer {
	sort.Strings(c.keys)
	h := fnv.New64a()
	for _, k := range c.keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	sort.Strings(c.unavailable)
	sort.Strings(c.skipped)
	return answer{tuples: len(c.keys), digest: h.Sum64(), unavailable: c.unavailable, skipped: c.skipped}
}

// referenceAnswer is the comparable form of an in-process result.
func referenceAnswer(res *ur.Result) answer {
	var c collector
	for _, t := range res.Relation.Tuples() {
		c.keys = append(c.keys, tupleKey(t))
	}
	if res.Degradation != nil {
		for _, f := range res.Degradation.Unavailable {
			c.unavailable = append(c.unavailable, failureKey(f))
		}
	}
	c.skipped = append(c.skipped, res.Skipped...)
	return c.answer()
}

func (a answer) equal(b answer) bool {
	return a.tuples == b.tuples && a.digest == b.digest &&
		strings.Join(a.unavailable, "\n") == strings.Join(b.unavailable, "\n") &&
		strings.Join(a.skipped, "\n") == strings.Join(b.skipped, "\n")
}

// tupleKey renders a tuple so that the wire's numeric normalisation (an
// integral float decodes as an int) does not count as a difference.
func tupleKey(t relation.Tuple) string {
	var sb strings.Builder
	for i, v := range t {
		if i > 0 {
			sb.WriteByte(0)
		}
		switch {
		case v.IsNull():
			sb.WriteString("n")
		case v.IsNumeric():
			sb.WriteString("#" + strconv.FormatFloat(v.FloatVal(), 'g', -1, 64))
		default:
			sb.WriteString(v.Kind().String() + ":" + v.String())
		}
	}
	return sb.String()
}

func failureKey(f ur.SiteFailure) string {
	return strings.Join(f.Object, ",") + "@" + f.Host + "/" + f.Kind
}
