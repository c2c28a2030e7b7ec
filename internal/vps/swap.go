package vps

import (
	"context"
	"fmt"

	"webbase/internal/navcalc"
	"webbase/internal/navmap"
)

// This file is the hot-swap half of the self-healing subsystem: the
// registry can atomically replace a relation's navigation map (and the
// expression translated from it) while queries are running. Swapping is
// copy-on-write — Populate loads the override pointer once per
// handle invocation — so the query path takes no locks and an in-flight
// query finishes on the map it started with.

// MapOverride is a repaired navigation map installed over a relation's
// base map, together with its translated expression and provenance.
type MapOverride struct {
	Map         *navmap.Map
	Expr        *navcalc.Expression
	Version     int    // 1 is the base map; each swap increments
	Fingerprint string // navmap.Fingerprint of Map
}

// SetBaseMap records the navigation map a relation's handles were
// translated from. Repair workers read it back with CurrentMap to know
// what to re-check against the live site.
func (r *Registry) SetBaseMap(name string, m *navmap.Map) error {
	ri, ok := r.relations[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	ri.baseMap = m
	return nil
}

// CurrentMap returns the navigation map the relation is currently served
// from: the latest swapped-in override, or the base map (nil when the
// relation was registered without one).
func (r *Registry) CurrentMap(name string) *navmap.Map {
	ri, ok := r.relations[name]
	if !ok {
		return nil
	}
	if ov := ri.override.Load(); ov != nil {
		return ov.Map
	}
	return ri.baseMap
}

// MapVersion reports which map generation the relation currently serves
// from (1 = the base map) and its fingerprint ("" for a base map that was
// never swapped).
func (r *Registry) MapVersion(name string) (int, string) {
	ri, ok := r.relations[name]
	if !ok {
		return 0, ""
	}
	if ov := ri.override.Load(); ov != nil {
		return ov.Version, ov.Fingerprint
	}
	return 1, ""
}

// SwapMap atomically installs a repaired navigation map for the relation.
// The map is validated and translated before the pointer moves, so a swap
// either fully succeeds or changes nothing; queries already executing the
// old expression are unaffected. Returns the new map version.
func (r *Registry) SwapMap(name string, m *navmap.Map) (int, error) {
	ri, ok := r.relations[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	if err := m.Validate(); err != nil {
		return 0, fmt.Errorf("vps: swapping map for %s: %w", name, err)
	}
	expr, err := navmap.Translate(m)
	if err != nil {
		return 0, fmt.Errorf("vps: swapping map for %s: %w", name, err)
	}
	if !expr.Schema.EqualUnordered(ri.Schema) {
		return 0, fmt.Errorf("vps: swapping map for %s: map schema %v ≠ relation schema %v",
			name, expr.Schema, ri.Schema)
	}
	version := 2
	if prev := ri.override.Load(); prev != nil {
		version = prev.Version + 1
	}
	ri.override.Store(&MapOverride{
		Map:         m,
		Expr:        expr,
		Version:     version,
		Fingerprint: navmap.Fingerprint(m),
	})
	return version, nil
}

// RestoreMap installs a previously persisted repaired map as the
// relation's override, preserving the map version it was healed at — a
// restart must not rewind MapVersion, or a fleet member would re-announce
// an old generation. It shares SwapMap's validate/translate/schema-check
// discipline (a corrupt or mismatched persisted map changes nothing), and
// is meant for boot time, before queries run.
func (r *Registry) RestoreMap(name string, m *navmap.Map, version int) error {
	ri, ok := r.relations[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	if version < 2 {
		return fmt.Errorf("vps: restoring map for %s: version %d is not a swap generation (≥ 2)", name, version)
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("vps: restoring map for %s: %w", name, err)
	}
	expr, err := navmap.Translate(m)
	if err != nil {
		return fmt.Errorf("vps: restoring map for %s: %w", name, err)
	}
	if !expr.Schema.EqualUnordered(ri.Schema) {
		return fmt.Errorf("vps: restoring map for %s: map schema %v ≠ relation schema %v",
			name, expr.Schema, ri.Schema)
	}
	if prev := ri.override.Load(); prev != nil && prev.Version >= version {
		return fmt.Errorf("vps: restoring map for %s: version %d is not newer than installed %d",
			name, version, prev.Version)
	}
	ri.override.Store(&MapOverride{
		Map:         m,
		Expr:        expr,
		Version:     version,
		Fingerprint: navmap.Fingerprint(m),
	})
	return nil
}

type quarantineKey struct{}

// ContextWithQuarantine attaches the set of quarantined hosts consulted
// by Populate. The caller snapshots the set once at query start —
// mid-query health transitions must not change a running query's
// behavior, or outcomes would depend on goroutine scheduling.
func ContextWithQuarantine(ctx context.Context, hosts map[string]bool) context.Context {
	if len(hosts) == 0 {
		return ctx
	}
	return context.WithValue(ctx, quarantineKey{}, hosts)
}

// QuarantineFrom returns the quarantined-host snapshot (nil when none).
func QuarantineFrom(ctx context.Context) map[string]bool {
	m, _ := ctx.Value(quarantineKey{}).(map[string]bool)
	return m
}
