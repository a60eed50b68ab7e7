package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ingest"
)

// DialConfig parameterises a cluster-aware client dial.
type DialConfig struct {
	// Bootstrap supplies the current node addresses to try. A func —
	// not a static list — because rolling restarts move listeners; the
	// dialer re-consults it whenever it rotates.
	Bootstrap func() []string
	// Hello is the stream handshake (as ingest.ClientConfig.Hello).
	Hello ingest.Hello
	// Timeout bounds each dial and read (default ingest's 5s).
	Timeout time.Duration
	// Seed drives backoff jitter; the scope is tenant/stream so
	// concurrent streams never retry in lockstep.
	Seed uint64
	// MaxHops bounds REDIRECT chains per attempt (default 4).
	MaxHops int
	// MaxAttempts bounds the whole dial (default 32). An attempt is a
	// dial that ended in RETRY, DRAIN or a transport error.
	MaxAttempts int
}

func (c DialConfig) maxHops() int {
	if c.MaxHops > 0 {
		return c.MaxHops
	}
	return 4
}

func (c DialConfig) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 32
}

// DialStats counts what it took to get admitted.
type DialStats struct {
	Redirects int // REDIRECT frames followed
	Retries   int // RETRY frames backed off from
	Rotations int // bootstrap rotations after DRAIN/transport errors
}

// Dial connects a stream to whichever node owns it: it follows
// REDIRECTs to the owner, backs off (seeded jitter) on RETRY, rotates
// to another bootstrap node on DRAIN or a dead listener, and returns
// the admitted client plus what the journey cost.
func Dial(cfg DialConfig) (*ingest.Client, DialStats, error) {
	var st DialStats
	if cfg.Bootstrap == nil {
		return nil, st, errors.New("cluster: dial needs a bootstrap source")
	}
	scope := cfg.Hello.Tenant + "/" + cfg.Hello.Stream
	next := 0 // rotating bootstrap cursor
	target := ""
	hops := 0
	var lastErr error
	// attempt only advances on RETRY, DRAIN and transport errors —
	// redirect hops are free (bounded separately by MaxHops).
	for attempt := 0; attempt < cfg.maxAttempts(); {
		if target == "" {
			addrs := cfg.Bootstrap()
			if len(addrs) == 0 {
				return nil, st, errors.New("cluster: no bootstrap addresses")
			}
			target = addrs[next%len(addrs)]
			next++
			hops = 0
		}
		c, err := ingest.Dial(ingest.ClientConfig{Addr: target, Hello: cfg.Hello, Timeout: cfg.Timeout})
		if err == nil {
			return c, st, nil
		}
		lastErr = err
		var rej *ingest.RejectedError
		if errors.As(err, &rej) {
			switch rej.Event.Type {
			case ingest.FrameRedirect:
				st.Redirects++
				hops++
				if hops > cfg.maxHops() {
					// A stale ring can point in circles; fall back to
					// rotating until the views converge.
					target = ""
					st.Rotations++
					attempt++
					sleepBackoff(ingest.Retry{}, cfg, scope, attempt)
					continue
				}
				target = rej.Event.Redirect.Addr
				continue
			case ingest.FrameRetry:
				st.Retries++
				attempt++
				sleepBackoff(rej.Event.Retry, cfg, scope, attempt)
				continue // same target: admission pressure passes
			case ingest.FrameDrain:
				st.Rotations++
				target = ""
				attempt++
				sleepBackoff(ingest.Retry{}, cfg, scope, attempt)
				continue
			default:
				return nil, st, err
			}
		}
		// Transport error: the node may be dead; try another.
		st.Rotations++
		target = ""
		attempt++
		sleepBackoff(ingest.Retry{}, cfg, scope, attempt)
	}
	return nil, st, fmt.Errorf("cluster: dial %s: attempts exhausted: %w", scope, lastErr)
}

func sleepBackoff(hint ingest.Retry, cfg DialConfig, scope string, attempt int) {
	// Cluster dials want snappier retries than the client default —
	// drills churn nodes in hundreds of milliseconds.
	if hint.AfterMillis == 0 {
		hint.AfterMillis = 25
	}
	time.Sleep(ingest.Backoff(hint, cfg.Seed, scope, attempt))
}
