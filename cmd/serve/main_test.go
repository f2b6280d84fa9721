package main

import (
	"strings"
	"testing"
)

// TestShardRoleFlagValidation pins the CLI contract around the shard
// flags: a router needs a map and takes no local inputs, and unknown roles
// are rejected.
func TestShardRoleFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // what the error must say
	}{
		{[]string{"-role", "router"}, "-shard-map"},
		{[]string{"-role", "router", "-shard-map", "m.json", "-in", "x.pmgd"}, "no -in/-raw"}, // local inputs
		{[]string{"-role", "coordinator", "-in", "x.pmgd"}, "-role"},                          // unknown role
		{[]string{"-role", "node"}, "-in or -raw is required"},                                // -in covers both layouts
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want a flag validation error saying %q", c.args, err, c.want)
		}
	}
}
