package client

import "time"

// WithMaxAge returns cfg with the freshness bound replaced, so the external
// tests can step over localMaxAge, or stay inside it, without sleeping a
// second.
func WithMaxAge(cfg Config, d time.Duration) Config {
	cfg.maxAge = d
	return cfg
}
