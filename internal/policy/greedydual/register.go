package greedydual

import (
	"mediacache/internal/core"
	"mediacache/internal/policy/registry"
)

func init() {
	registry.Register(registry.Entry{
		Name: "greedydual",
		New: func(cfg registry.Config) (core.Policy, error) {
			return New(nil, cfg.Seed), nil
		},
	})
}
