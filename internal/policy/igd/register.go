package igd

import (
	"mediacache/internal/core"
	"mediacache/internal/policy/registry"
)

func init() {
	registry.Register(registry.Entry{
		Name:  "igd",
		Usage: "igd:K",
		New: func(cfg registry.Config) (core.Policy, error) {
			return New(cfg.Repo.N(), cfg.Spec.K, cfg.Seed)
		},
	})
}
