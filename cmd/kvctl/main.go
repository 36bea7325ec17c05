// Command kvctl is a client for kvserver: the data commands and the
// membership/status operator API, over the binary front door through
// the client package.
//
// Data:
//
//	kvctl -addr 127.0.0.1:7200 put greeting hello
//	kvctl -addr 127.0.0.1:7200 get greeting
//	kvctl -addr 127.0.0.1:7200 del greeting
//
// Reads take a consistency level (default: the replicated read, which
// commits through the log like a write):
//
//	kvctl -addr 127.0.0.1:7200 get -level=lin greeting     # local linearizable
//	kvctl -addr 127.0.0.1:7200 get -level=seq greeting     # session-monotonic
//	kvctl -addr 127.0.0.1:7200 get -level=stale greeting   # immediate
//	kvctl -addr 127.0.0.1:7200 get -level=stale -maxage=100ms greeting
//
// Operations:
//
//	kvctl -addr 127.0.0.1:7200 members        # per-group member sets
//	kvctl -addr 127.0.0.1:7200 epoch          # per-group epochs
//	kvctl -addr 127.0.0.1:7200 status         # full per-group snapshot
//	kvctl -addr 127.0.0.1:7200 reconf 0,1,2   # reconfigure all groups
//	kvctl -addr 127.0.0.1:7200 routes         # routing table snapshot
//	kvctl -addr 127.0.0.1:7200 split g0 g2    # live-split group g0 into g2
//	kvctl -addr 127.0.0.1:7200 heal           # roll forward a stalled split
//
// reconf accepts replica IDs separated by commas or spaces, bare or
// r-prefixed ("reconf 0 1 2", "reconf r0,r1,r2"). It drives every
// group hosted by the addressed replica to the new configuration and
// prints the resulting member set and per-group epochs.
//
// -addr takes one or more comma-separated replica addresses; the client
// fails over between them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"clockrsm/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7200", "comma-separated kvserver client addresses (tried in order, with failover)")
	timeout := flag.Duration("timeout", 30*time.Second, "request timeout")
	flag.Parse()

	if err := run(*addr, *timeout, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "kvctl:", err)
		os.Exit(1)
	}
}

// getSpec is a parsed `get` invocation.
type getSpec struct {
	key    string
	level  string        // "", "lin", "seq" or "stale"
	maxAge time.Duration // only with level "stale"; 0 serves unconditionally
}

// parseGet parses `get [-level=...] [-maxage=...] <key>`.
func parseGet(args []string) (getSpec, error) {
	var g getSpec
	var keys []string
	bounded := false
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "-level="):
			g.level = strings.TrimPrefix(a, "-level=")
		case strings.HasPrefix(a, "-maxage="):
			d, err := time.ParseDuration(strings.TrimPrefix(a, "-maxage="))
			if err != nil {
				return g, fmt.Errorf("bad -maxage: %v", err)
			}
			g.maxAge, bounded = d, true
		default:
			keys = append(keys, a)
		}
	}
	if len(keys) != 1 {
		return g, fmt.Errorf("usage: kvctl get [-level=lin|seq|stale] [-maxage=<dur>] <key>")
	}
	g.key = keys[0]
	if bounded && g.level != "stale" {
		return g, fmt.Errorf("-maxage applies only to -level=stale (the other levels have no staleness bound)")
	}
	switch g.level {
	case "", "lin", "seq", "stale":
		return g, nil
	default:
		return g, fmt.Errorf("unknown read level %q (want lin, seq or stale)", g.level)
	}
}

// buildLine translates an operator subcommand into the admin line the
// server's handler parses.
func buildLine(args []string) (string, error) {
	usage := fmt.Errorf("usage: kvctl [flags] put|get|del <key> [value] | members|epoch|status|routes|heal | reconf <id,id,...> | split <src> <dst>")
	if len(args) == 0 {
		return "", usage
	}
	switch strings.ToLower(args[0]) {
	case "members", "epoch", "status", "routes", "heal":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: kvctl %s", strings.ToLower(args[0]))
		}
		return strings.ToUpper(args[0]), nil
	case "split":
		if len(args) != 3 {
			return "", fmt.Errorf("usage: kvctl split <src-group> <dst-group>")
		}
		return "SPLIT " + args[1] + " " + args[2], nil
	case "reconf":
		if len(args) < 2 {
			return "", fmt.Errorf("usage: kvctl reconf <id,id,...>")
		}
		var ids []string
		for _, arg := range args[1:] {
			for _, tok := range strings.Split(arg, ",") {
				if tok = strings.TrimSpace(tok); tok != "" {
					ids = append(ids, tok)
				}
			}
		}
		if len(ids) == 0 {
			return "", fmt.Errorf("usage: kvctl reconf <id,id,...>")
		}
		return "RECONF " + strings.Join(ids, ","), nil
	default:
		return "", usage
	}
}

// request is one validated kvctl invocation, bound to the client call
// that serves it; it returns the reply line to print.
type request func(ctx context.Context, c *client.Client) (string, error)

// parseRequest validates an invocation before anything is dialed: data
// verbs map to client methods, operator verbs travel as admin lines.
func parseRequest(args []string) (request, error) {
	verb := ""
	if len(args) > 0 {
		verb = strings.ToLower(args[0])
	}
	switch verb {
	case "put":
		if len(args) < 3 {
			return nil, fmt.Errorf("usage: kvctl put <key> <value>")
		}
		key, val := args[1], []byte(strings.Join(args[2:], " "))
		return func(ctx context.Context, c *client.Client) (string, error) {
			return okLine(c.Put(ctx, key, val))
		}, nil
	case "del":
		if len(args) != 2 {
			return nil, fmt.Errorf("usage: kvctl del <key>")
		}
		return func(ctx context.Context, c *client.Client) (string, error) {
			return okLine(c.Del(ctx, args[1]))
		}, nil
	case "get":
		g, err := parseGet(args[1:])
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, c *client.Client) (string, error) {
			switch g.level {
			case "lin":
				return okLine(c.GetLin(ctx, g.key))
			case "seq":
				return okLine(c.GetSeq(ctx, g.key))
			case "stale":
				return okLine(c.GetStale(ctx, g.key, g.maxAge))
			default:
				return okLine(c.Get(ctx, g.key))
			}
		}, nil
	}
	line, err := buildLine(args)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, c *client.Client) (string, error) {
		return c.Admin(ctx, line)
	}, nil
}

// okLine renders a data call's result as "OK <value>" ("OK (nil)" for an
// absent key).
func okLine(v []byte, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if v == nil {
		return "OK (nil)", nil
	}
	return "OK " + string(v), nil
}

// run performs one request against the replicas in addr.
func run(addr string, timeout time.Duration, args []string) error {
	req, err := parseRequest(args)
	if err != nil {
		return err
	}
	c, err := client.Dial(client.Config{
		Addrs:       strings.Split(addr, ","),
		DialTimeout: timeout,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	reply, err := req(ctx, c)
	if err != nil {
		return err
	}
	fmt.Println(reply)
	if strings.HasPrefix(reply, "ERR") {
		return fmt.Errorf("server error")
	}
	return nil
}
