package main

import (
	"errors"
	"fmt"
	"strings"
)

// outcomes classifies every discovered group URL by how the study left
// it, as msgscope's Result.GroupOutcomes does.
type outcomes struct {
	Discovered, Alive, Revoked, Deferred, Lost int
}

// table2Row is the part of one Table 2 row the check reads.
type table2Row struct {
	Platform  string
	Tweets    int
	GroupURLs int
}

// output is what the check reads from one finished study.
type output struct {
	Outcomes outcomes
	Table2   []table2Row
	Messages int
	// Empty names the rendered artifacts that came out blank.
	Empty []string
	// RenderDigest hashes every rendering, CSV and SVG; DatasetDigest
	// hashes the dataset's JSONL (durable workload only).
	RenderDigest  string
	DatasetDigest string
}

var platforms = []string{"WhatsApp", "Telegram", "Discord"}

// check verifies one study's output: every discovered group is accounted
// for (none lost), each platform has a non-empty Table 2 row, messages
// were collected and no artifact is blank. Every study of a run uses the
// same seeds, so with a reference — the run's first good study, or on the
// durable workload an untimed uninterrupted run of the same options —
// every rendering and the dataset must also be byte-identical to it.
func check(o output, ref *output) error {
	var errs []error
	oc := o.Outcomes
	if oc.Discovered == 0 {
		errs = append(errs, errors.New("no group discovered"))
	}
	if oc.Lost != 0 {
		errs = append(errs, fmt.Errorf("%d groups lost", oc.Lost))
	}
	if sum := oc.Alive + oc.Revoked + oc.Deferred; sum != oc.Discovered {
		errs = append(errs, fmt.Errorf("alive+revoked+deferred = %d, discovered = %d", sum, oc.Discovered))
	}
	for _, p := range platforms {
		found := false
		for _, r := range o.Table2 {
			if r.Platform == p {
				found = true
				if r.Tweets == 0 || r.GroupURLs == 0 {
					errs = append(errs, fmt.Errorf("table 2 row %s is empty: %d tweets, %d group URLs", p, r.Tweets, r.GroupURLs))
				}
			}
		}
		if !found {
			errs = append(errs, fmt.Errorf("table 2 has no %s row", p))
		}
	}
	if o.Messages == 0 {
		errs = append(errs, errors.New("no message collected"))
	}
	if len(o.Empty) > 0 {
		errs = append(errs, fmt.Errorf("blank artifacts: %s", strings.Join(o.Empty, ", ")))
	}
	if ref != nil {
		if o.RenderDigest != ref.RenderDigest {
			errs = append(errs, errors.New("renders differ from the reference study"))
		}
		if o.DatasetDigest != ref.DatasetDigest {
			errs = append(errs, errors.New("dataset differs from the reference study"))
		}
	}
	return errors.Join(errs...)
}

// selfTest shows the check is live: good must pass, and each tampered
// copy of it must fail.
func selfTest(good output, ref *output) error {
	if err := check(good, ref); err != nil {
		return fmt.Errorf("self-test: untampered output fails: %w", err)
	}
	tampers := map[string]func(*output){
		"lost group": func(o *output) { o.Outcomes.Lost++; o.Outcomes.Discovered++ },
		"unbalanced": func(o *output) { o.Outcomes.Alive++ },
		"empty row": func(o *output) {
			o.Table2 = append([]table2Row(nil), o.Table2...)
			o.Table2[0].Tweets = 0
		},
		"no messages":  func(o *output) { o.Messages = 0 },
		"blank figure": func(o *output) { o.Empty = []string{"fig6.svg"} },
	}
	if ref != nil {
		tampers["render differs"] = func(o *output) { o.RenderDigest = flip(o.RenderDigest) }
		if ref.DatasetDigest != "" {
			tampers["dataset differs"] = func(o *output) { o.DatasetDigest = flip(o.DatasetDigest) }
		}
	}
	for name, tamper := range tampers {
		bad := good
		tamper(&bad)
		if check(bad, ref) == nil {
			return fmt.Errorf("self-test: tampered output (%s) passes the check", name)
		}
	}
	return nil
}

// flip changes the last character of a hex digest.
func flip(s string) string {
	if s == "" {
		return "0"
	}
	last := s[len(s)-1]
	repl := byte('0')
	if last == '0' {
		repl = '1'
	}
	return s[:len(s)-1] + string(repl)
}
