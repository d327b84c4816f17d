// Package clusterconf makes the acesod daemons the one source of a TCP
// cluster's configuration. A daemon publishes the core.Config it was
// started with through its tcpnet platform (Publish) and checks it
// against the first peer that answers (CheckPeers); acesocli and
// acesoload fetch it (Join) instead of repeating the daemons' mode and
// geometry flags, so a client cannot compute addresses from a layout
// the memory nodes do not use.
package clusterconf

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/rdma/tcpnet"
)

// timeout bounds one configuration request: one dial and one exchange.
const timeout = 2 * time.Second

// errDecode marks a peer that answered with bytes this build cannot
// read as a configuration: unlike a peer that does not answer, that is
// a disagreement.
var errDecode = errors.New("undecodable configuration")

// decode parses a configuration's wire form, its JSON. A field this
// build does not know means the peer runs other code, and is an error.
func decode(b []byte) (core.Config, error) {
	var cfg core.Config
	d := json.NewDecoder(bytes.NewReader(b))
	d.DisallowUnknownFields()
	if err := d.Decode(&cfg); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Publish makes every node pl serves answer configuration requests
// with cfg. Call it before opening the cluster on pl, which starts the
// node's listener.
func Publish(pl *tcpnet.Platform, cfg core.Config) error {
	b, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	pl.PublishConfig(b)
	return nil
}

// Join returns the configuration of the cluster whose memory nodes
// listen at addrs, fetched from the first of them that answers, with
// the per-process fields at their defaults for the caller to set. It
// refuses an address list whose length is not the cluster's MN count,
// and a peer whose answer does not decode.
func Join(addrs []string) (core.Config, error) {
	var errs []error
	for _, a := range addrs {
		cfg, err := fetch(a)
		if errors.Is(err, errDecode) {
			return core.Config{}, err
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if n := cfg.Layout.NumMNs; n != len(addrs) {
			return core.Config{}, fmt.Errorf("-peers lists %d addresses, but the cluster %s serves has %d memory nodes", len(addrs), a, n)
		}
		return clusterPart(cfg), nil
	}
	return core.Config{}, fmt.Errorf("no peer answered with the cluster configuration: %w", errors.Join(errs...))
}

// CheckPeers asks every peer other than self once, in order, and
// compares cfg with the configuration of the first that answers. It
// returns an error naming the first field in which they differ, and
// nil when they agree or no peer answers yet (the first daemon up has
// no one to agree with).
func CheckPeers(cfg core.Config, addrs []string, self int) error {
	for i, a := range addrs {
		if i == self {
			continue
		}
		peer, err := fetch(a)
		if errors.Is(err, errDecode) {
			return err
		}
		if err != nil {
			continue
		}
		if f, mine, theirs := firstDiff(clusterPart(cfg), clusterPart(peer)); f != "" {
			return fmt.Errorf("configuration differs from mn%d's (%s) in %s: %v here, %v there", i, a, f, mine, theirs)
		}
		return nil
	}
	return nil
}

// fetch requests and decodes the configuration published at addr.
func fetch(addr string) (core.Config, error) {
	b, err := tcpnet.FetchConfig(addr, timeout)
	if err != nil {
		return core.Config{}, fmt.Errorf("%s: %w", addr, err)
	}
	cfg, err := decode(b)
	if err != nil {
		return core.Config{}, fmt.Errorf("%w from %s: %v", errDecode, addr, err)
	}
	return cfg, nil
}

// clusterPart returns c with the fields a process sets for itself, the
// client cache bound and the op-span sampling rate, at their defaults:
// daemons need not agree on them, and a client that joins sets its own.
func clusterPart(c core.Config) core.Config {
	def := core.DefaultConfig()
	c.CacheEntries, c.TraceSample = def.CacheEntries, def.TraceSample
	return c
}

// firstDiff returns the dotted name of the first field, in declaration
// order, in which a and b differ, with the two values; "" when they
// are equal.
func firstDiff(a, b core.Config) (field string, av, bv any) {
	return diffFields("", reflect.ValueOf(a), reflect.ValueOf(b))
}

func diffFields(prefix string, a, b reflect.Value) (string, any, any) {
	for i := 0; i < a.NumField(); i++ {
		name := prefix + a.Type().Field(i).Name
		fa, fb := a.Field(i), b.Field(i)
		if fa.Kind() == reflect.Struct {
			if f, x, y := diffFields(name+".", fa, fb); f != "" {
				return f, x, y
			}
			continue
		}
		if !fa.Equal(fb) {
			return name, fa.Interface(), fb.Interface()
		}
	}
	return "", nil, nil
}
