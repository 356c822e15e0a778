package check

import (
	"fmt"
	"strconv"
	"strings"
)

// A spec is a scenario's one-line form: whitespace-separated tokens, each
// "key=value" or a bare flag, of which only the fields differing from the
// kind's default are written (the seed always is). Each kind declares its
// tokens once, in a field table; String, Parse, Fields and the shrinker's
// candidates all come from that table.

// field is one key of a spec kind's field table.
type field[S any] struct {
	key    string
	flag   bool // a bare token: "ckpt", not "ckpt=true"
	pinned bool // always written, never counted or shrunk (the seed)
	// vals renders the values s holds that differ from the default: none,
	// one, or one per element of a repeated field.
	vals func(s *S) []string
	// parse applies one token's value to s (a repeated field appends).
	parse func(s *S, val string) error
	// reset returns value i of vals to the default (a repeated field drops
	// element i).
	reset func(s *S, i int)
}

// scalar declares a field holding one value.
func scalar[S any, T comparable](key string, at func(*S) *T, def T, format func(T) string, parse func(string) (T, error)) field[S] {
	return field[S]{
		key: key,
		vals: func(s *S) []string {
			if v := *at(s); v != def {
				return []string{format(v)}
			}
			return nil
		},
		parse: func(s *S, val string) (err error) {
			*at(s), err = parse(val)
			return err
		},
		reset: func(s *S, _ int) { *at(s) = def },
	}
}

// num declares an integer field.
func num[S any, T int | int64](key string, at func(*S) *T, def T) field[S] {
	return scalar(key, at, def,
		func(v T) string { return strconv.FormatInt(int64(v), 10) },
		func(val string) (T, error) {
			v, err := strconv.ParseInt(val, 10, 64)
			return T(v), err
		})
}

// text declares a string-valued field.
func text[S any, T ~string](key string, at func(*S) *T, def T) field[S] {
	return scalar(key, at, def,
		func(v T) string { return string(v) },
		func(val string) (T, error) { return T(val), nil })
}

// flag declares a boolean field that is off by default. Its token takes no
// value: "ckpt=false" is an error, not a checkpoint.
func flag[S any](key string, at func(*S) *bool) field[S] {
	f := scalar(key, at, false,
		func(bool) string { return "" },
		func(val string) (bool, error) {
			if val != "" {
				return false, fmt.Errorf("flag %q takes no value", key)
			}
			return true, nil
		})
	f.flag = true
	return f
}

// seed declares the engine seed: 1 by default, and always written.
func seed[S any](at func(*S) *int64) field[S] {
	f := num("seed", at, 1)
	f.vals = func(s *S) []string { return []string{strconv.FormatInt(*at(s), 10)} }
	f.pinned = true
	return f
}

// list declares a repeated field, one token per element, empty by default.
func list[S any, T any](key string, at func(*S) *[]T, format func(T) string, parse func(string) (T, error)) field[S] {
	return field[S]{
		key: key,
		vals: func(s *S) []string {
			var out []string
			for _, v := range *at(s) {
				out = append(out, format(v))
			}
			return out
		},
		parse: func(s *S, val string) error {
			v, err := parse(val)
			if err == nil {
				*at(s) = append(*at(s), v)
			}
			return err
		},
		reset: func(s *S, i int) {
			l := *at(s)
			*at(s) = append(append([]T{}, l[:i]...), l[i+1:]...)
		},
	}
}

// codec reads and writes one spec kind from its field table.
type codec[S interface{ Valid() error }] struct {
	prefix string // leading token that names the kind, or ""
	fields []field[S]
	index  map[string]int // field by key
	// shrink lists the shrinker's one-step simplifications, most aggressive
	// first: each entry resets its fields together, and is tried when its
	// first field differs from the default (once per element of a repeated
	// field).
	shrink [][]int
	def    S
}

// newCodec builds a codec from the field table, in written order, and the
// shrink order: each entry names the keys one simplification resets, and
// every field but the seed leads one.
func newCodec[S interface{ Valid() error }](prefix string, shrink []string, fields ...field[S]) *codec[S] {
	c := &codec[S]{prefix: prefix, fields: fields, index: map[string]int{}}
	for i, f := range fields {
		c.index[f.key] = i
		// def starts as the zero S; set the fields whose default is not
		// their zero value.
		if len(f.vals(&c.def)) > 0 {
			f.reset(&c.def, 0)
		}
	}
	for _, keys := range shrink {
		var g []int
		for _, k := range strings.Fields(keys) {
			g = append(g, c.index[k])
		}
		c.shrink = append(c.shrink, g)
	}
	return c
}

func (c *codec[S]) format(s S) string {
	var toks []string
	if c.prefix != "" {
		toks = append(toks, c.prefix)
	}
	for _, f := range c.fields {
		for _, v := range f.vals(&s) {
			if f.flag {
				toks = append(toks, f.key)
			} else {
				toks = append(toks, f.key+"="+v)
			}
		}
	}
	return strings.Join(toks, " ")
}

// parse reads a spec format wrote; fields it omits take their defaults.
func (c *codec[S]) parse(spec string) (S, error) {
	s := c.def
	toks := strings.Fields(spec)
	if c.prefix != "" {
		if len(toks) == 0 || toks[0] != c.prefix {
			return s, fmt.Errorf("check: spec must start with %q: %q", c.prefix, spec)
		}
		toks = toks[1:]
	}
	for _, tok := range toks {
		key, val, _ := strings.Cut(tok, "=")
		i, ok := c.index[key]
		if !ok {
			return s, fmt.Errorf("check: unknown spec token %q", tok)
		}
		if err := c.fields[i].parse(&s, val); err != nil {
			return s, fmt.Errorf("check: token %q: %v", tok, err)
		}
	}
	return s, s.Valid()
}

// count is the number of values s holds that differ from the default (the
// seed aside); the shrinker minimizes it.
func (c *codec[S]) count(s S) int {
	n := 0
	for _, f := range c.fields {
		if !f.pinned {
			n += len(f.vals(&s))
		}
	}
	return n
}

func (c *codec[S]) candidates(s S) []S {
	var out []S
	for _, g := range c.shrink {
		for i := range c.fields[g[0]].vals(&s) {
			cand := s
			c.fields[g[0]].reset(&cand, i)
			for _, j := range g[1:] {
				c.fields[j].reset(&cand, 0)
			}
			out = append(out, cand)
		}
	}
	return out
}
