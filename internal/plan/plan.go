// Package plan is the one persisted format for plans: a versioned JSON
// envelope carrying a venue, a multi-site deployment, or a campaign spec
// list, tagged with a format version and a kind. The package owns the
// whole codec, payloads included. Decoding is strict end to end: unknown
// fields anywhere in the document are rejected, and the payload key must
// match the kind. Semantic validation stays with the payload types
// (Venue.Validate, DeploymentConfig.Validate, Spec.Validate).
//
// A bare venue, deployment or campaign document becomes a plan by wrapping
// it: {"version":1,"kind":"venue","venue":{...}}.
//
// Encode's output is canonical (compact, fixed field order), which is what
// the job server hashes to content-address results: two submissions of the
// same plan hash identically byte for byte.
package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"cityhunter/internal/campaign"
	"cityhunter/internal/scenario"
)

// Version is the current (and only) plan format version.
const Version = 1

// Kind tags what a plan describes.
type Kind string

const (
	// KindVenue is a single venue definition.
	KindVenue Kind = "venue"
	// KindDeployment is a multi-site deployment plan.
	KindDeployment Kind = "deployment"
	// KindCampaign is a campaign spec list.
	KindCampaign Kind = "campaign"
)

// Plan is the decoded envelope. Exactly one payload field is set,
// matching Kind.
type Plan struct {
	// Version is the format version (always Version after a successful
	// Load; Save stamps it automatically).
	Version int
	// Kind says which payload field below is populated.
	Kind Kind
	// Venue is the payload of a KindVenue plan.
	Venue *scenario.Venue
	// Deployment is the payload of a KindDeployment plan. Its Base is
	// empty: a plan describes where and how to deploy, the experiment
	// configuration comes from the caller.
	Deployment *scenario.DeploymentConfig
	// Specs is the payload of a KindCampaign plan.
	Specs []campaign.Spec
}

// planFile is the envelope's JSON form. The payload key is named after
// the kind; the others must be absent. Every payload is a typed field, so
// one DisallowUnknownFields decoder covers the whole document.
type planFile struct {
	Version    int             `json:"version"`
	Kind       string          `json:"kind"`
	Venue      *venueFile      `json:"venue,omitempty"`
	Deployment *deploymentFile `json:"deployment,omitempty"`
	Campaign   *campaignFile   `json:"campaign,omitempty"`
}

// Encode renders the plan in its canonical compact form — the bytes the
// job server hashes for the result store. The plan is validated on the way
// out (the payload codecs reject what Decode would reject).
func Encode(p Plan) ([]byte, error) {
	if p.Version != 0 && p.Version != Version {
		return nil, fmt.Errorf("plan: unsupported version %d (want %d)", p.Version, Version)
	}
	pf := planFile{Version: Version, Kind: string(p.Kind)}
	switch p.Kind {
	case KindVenue:
		if p.Venue == nil {
			return nil, fmt.Errorf("plan: venue plan needs a venue payload")
		}
		vf, err := encodeVenue(*p.Venue)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		pf.Venue = &vf
	case KindDeployment:
		if p.Deployment == nil {
			return nil, fmt.Errorf("plan: deployment plan needs a deployment payload")
		}
		df, err := encodeDeployment(*p.Deployment)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		pf.Deployment = &df
	case KindCampaign:
		if len(p.Specs) == 0 {
			return nil, fmt.Errorf("plan: campaign plan declares no runs")
		}
		cf, err := encodeSpecs(p.Specs)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		pf.Campaign = &cf
	default:
		return nil, fmt.Errorf("plan: unknown kind %q (want venue|deployment|campaign)", p.Kind)
	}
	data, err := json.Marshal(pf)
	if err != nil {
		return nil, fmt.Errorf("plan: encode: %w", err)
	}
	return data, nil
}

// Save writes the plan as indented JSON (the same document Encode
// produces, reformatted for humans).
func Save(w io.Writer, p Plan) error {
	data, err := Encode(p)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return fmt.Errorf("plan: encode: %w", err)
	}
	buf.WriteByte('\n')
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("plan: write: %w", err)
	}
	return nil
}

// Decode parses and validates an envelope. Unknown fields anywhere in the
// document — envelope, payload, embedded venues — are rejected, the
// version must match, and the payload key must agree with the kind.
func Decode(data []byte) (Plan, error) {
	var pf planFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pf); err != nil {
		return Plan{}, fmt.Errorf("plan: decode: %w", err)
	}
	if pf.Version != Version {
		return Plan{}, fmt.Errorf("plan: unsupported version %d (want %d)", pf.Version, Version)
	}
	extra := func(key string) error {
		return fmt.Errorf("plan: kind %q does not take a %q payload", pf.Kind, key)
	}
	p := Plan{Version: pf.Version, Kind: Kind(pf.Kind)}
	switch p.Kind {
	case KindVenue:
		if pf.Deployment != nil {
			return Plan{}, extra("deployment")
		}
		if pf.Campaign != nil {
			return Plan{}, extra("campaign")
		}
		if pf.Venue == nil {
			return Plan{}, fmt.Errorf("plan: venue plan needs a venue payload")
		}
		v, err := decodeVenue(*pf.Venue)
		if err != nil {
			return Plan{}, fmt.Errorf("plan: %w", err)
		}
		p.Venue = &v
	case KindDeployment:
		if pf.Venue != nil {
			return Plan{}, extra("venue")
		}
		if pf.Campaign != nil {
			return Plan{}, extra("campaign")
		}
		if pf.Deployment == nil {
			return Plan{}, fmt.Errorf("plan: deployment plan needs a deployment payload")
		}
		d, err := decodeDeployment(*pf.Deployment)
		if err != nil {
			return Plan{}, fmt.Errorf("plan: %w", err)
		}
		p.Deployment = &d
	case KindCampaign:
		if pf.Venue != nil {
			return Plan{}, extra("venue")
		}
		if pf.Deployment != nil {
			return Plan{}, extra("deployment")
		}
		if pf.Campaign == nil {
			return Plan{}, fmt.Errorf("plan: campaign plan needs a campaign payload")
		}
		specs, err := decodeSpecs(*pf.Campaign)
		if err != nil {
			return Plan{}, fmt.Errorf("plan: %w", err)
		}
		p.Specs = specs
	default:
		return Plan{}, fmt.Errorf("plan: unknown kind %q (want venue|deployment|campaign)", p.Kind)
	}
	return p, nil
}

// Load reads a plan previously written by Save (or hand-written in the
// same format).
func Load(r io.Reader) (Plan, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Plan{}, fmt.Errorf("plan: decode: %w", err)
	}
	return Decode(data)
}
