package ldmsd

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"goldms/internal/procfs"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// cmdDaemon is a daemon on a virtual clock with sim /proc, the mem
// transport on net and the sock transport.
func cmdDaemon(t *testing.T, name string, sch *sched.Scheduler, net *transport.Network) *Daemon {
	t.Helper()
	d, err := New(Options{
		Name:       name,
		Scheduler:  sch,
		FS:         procfs.NewSimFS(testNode(name)),
		Transports: []transport.Factory{transport.MemFactory{Net: net}, transport.SockFactory{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// TestCommandTable runs every example in documentedCommands on one daemon,
// in order: first with an undeclared key added, which must fail naming
// it, append nothing to the journal and leave every *_status line as it
// was; then as written, which must succeed. A handler that reads a key its
// entry does not declare fails the second run. Every table entry must
// have an example and a summary.
func TestCommandTable(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork()
	smp := virtualSampler(t, "n1", sch, net, 1)
	defer smp.Stop()
	if _, err := smp.ExecScript("load name=meminfo\nstart name=meminfo interval=1s"); err != nil {
		t.Fatal(err)
	}
	d := cmdDaemon(t, "agg", sch, net)
	csv := filepath.Join(t.TempDir(), "out.csv")
	status := func() string {
		var b strings.Builder
		for _, c := range []string{"prdcr_status", "updtr_status", "strgp_status"} {
			out, err := d.Exec(c)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			b.WriteString(out + "\n")
		}
		return b.String()
	}

	seen := make(map[string]bool)
	peers := "127.0.0.1:10444"
	for _, line := range documentedCommands {
		line = strings.NewReplacer("/tmp/out.csv", csv, "127.0.0.1:10444", peers).Replace(line)
		c := lookupCommand(strings.Fields(line)[0])
		if c == nil {
			t.Fatalf("%s: not a table command", line)
		}
		seen[c.name] = true
		// Undeclared keys of config and strgp_add go to the plugin.
		if !c.plugin {
			before, events := status(), d.journal.Total()
			_, err := d.Exec(line + " zz=1")
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("ldmsd: %s: unknown key \"zz\" (accepted: ", c.name)) {
				t.Errorf("%s zz=1: err = %v, want the unknown-key error", line, err)
			}
			if n := d.journal.Total(); n != events {
				t.Errorf("%s zz=1 journaled %d events", line, n-events)
			}
			if after := status(); after != before {
				t.Errorf("%s zz=1 changed the status:\n%s\nto\n%s", line, before, after)
			}
		}
		out, err := d.Exec(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if strings.Contains(line, "peers=1") {
			peers = out
		}
	}
	for _, c := range commands {
		if !seen[c.name] {
			t.Errorf("documentedCommands has no %s line", c.name)
		}
		if c.summary == "" {
			t.Errorf("%s has no summary", c.name)
		}
	}
}

// TestExecRequiredKeys: a missing required key is named, before the
// handler looks anything up.
func TestExecRequiredKeys(t *testing.T) {
	d := cmdDaemon(t, "n1", sched.NewVirtual(time.Unix(0, 0)), transport.NewNetwork())
	for line, want := range map[string]string{
		"updtr_prdcr_add name=u":              "ldmsd: updtr_prdcr_add requires prdcr=",
		"load name=":                          "ldmsd: load requires name=",
		"strgp_add name=s plugin=store_csv":   "ldmsd: strgp_add requires schema=",
		"listen addr=127.0.0.1:0":             "ldmsd: listen requires xprt=",
		"updtr_add name=u synchronous=1":      "ldmsd: updtr_add requires interval=",
		"advertise xprt=sock interval=1s":     "ldmsd: advertise requires host=",
		"http_listen points=8":                "ldmsd: http_listen requires addr=",
		"strgp_metric_add metric=MemFree":     "ldmsd: strgp_metric_add requires name=",
		"updtr_match_add name=u match=":       "ldmsd: updtr_match_add requires match=",
		"start name=meminfo synchronous=true": "ldmsd: start requires interval=",
	} {
		if _, err := d.Exec(line); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", line, err, want)
		}
	}
}

// TestOnOffKeys: every on/off key reads 1 and true as on, 0 and false as
// off, and rejects anything else naming the key.
func TestOnOffKeys(t *testing.T) {
	cases := []struct {
		cmd, key string
		// probe runs the command with key=v on a fresh daemon and reports
		// whether the state it set is on.
		probe func(t *testing.T, v string) (bool, error)
	}{
		{"start", "synchronous", func(t *testing.T, v string) (bool, error) {
			d := cmdDaemon(t, "n1", sched.NewVirtual(time.Unix(0, 0)), transport.NewNetwork())
			if _, err := d.Exec("load name=meminfo"); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Exec("start name=meminfo interval=1s synchronous=" + v); err != nil {
				return false, err
			}
			return d.Sampler("meminfo").synced, nil
		}},
		{"updtr_add", "synchronous", func(t *testing.T, v string) (bool, error) {
			d := cmdDaemon(t, "agg", sched.NewVirtual(time.Unix(0, 0)), transport.NewNetwork())
			if _, err := d.Exec("updtr_add name=u interval=1s synchronous=" + v); err != nil {
				if d.Updater("u") != nil {
					t.Errorf("rejected updtr_add synchronous=%s registered the updater", v)
				}
				return false, err
			}
			u := d.Updater("u")
			u.mu.Lock()
			defer u.mu.Unlock()
			return u.synced, nil
		}},
		{"prdcr_add", "standby", func(t *testing.T, v string) (bool, error) {
			d := cmdDaemon(t, "agg", sched.NewVirtual(time.Unix(0, 0)), transport.NewNetwork())
			if _, err := d.Exec("prdcr_add name=p xprt=mem host=n1 standby=" + v); err != nil {
				if d.Producer("p") != nil {
					t.Errorf("rejected prdcr_add standby=%s registered the producer", v)
				}
				return false, err
			}
			return d.Producer("p").Standby(), nil
		}},
		{"http_listen", "pprof", func(t *testing.T, v string) (bool, error) {
			d := cmdDaemon(t, "agg", sched.NewVirtual(time.Unix(0, 0)), transport.NewNetwork())
			addr, err := d.Exec("http_listen addr=127.0.0.1:0 pprof=" + v)
			if err != nil {
				return false, err
			}
			resp, err := http.Get("http://" + addr + "/debug/pprof/")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK, nil
		}},
		{"listen", "peers", func(t *testing.T, v string) (bool, error) {
			// mem has no reversed connections: only a peers listener on it
			// fails, and it fails naming that.
			d := cmdDaemon(t, "agg", sched.NewVirtual(time.Unix(0, 0)), transport.NewNetwork())
			_, err := d.Exec("listen xprt=mem addr=agg2 peers=" + v)
			if err != nil && strings.Contains(err.Error(), "reversed connections") {
				return true, nil
			}
			return false, err
		}},
		{"trace", "chains", func(t *testing.T, v string) (bool, error) {
			sch := sched.NewVirtual(time.Unix(0, 0))
			net := transport.NewNetwork()
			smp := virtualSampler(t, "n1", sch, net, 1)
			t.Cleanup(smp.Stop)
			if _, err := smp.ExecScript("load name=meminfo\nstart name=meminfo interval=1s"); err != nil {
				t.Fatal(err)
			}
			d := cmdDaemon(t, "agg", sch, net)
			if _, err := d.ExecScript("prdcr_add name=n1 xprt=mem host=n1 interval=1s\nprdcr_start name=n1\nupdtr_add name=u interval=1s\nupdtr_prdcr_add name=u prdcr=n1\nupdtr_start name=u"); err != nil {
				t.Fatal(err)
			}
			sch.AdvanceBy(3 * time.Second)
			out, err := d.Exec("trace chains=" + v)
			return strings.Contains(out, "set=n1/meminfo"), err
		}},
	}
	for _, c := range cases {
		for _, v := range []struct {
			val string
			on  bool
			bad bool
		}{{"1", true, false}, {"true", true, false}, {"0", false, false}, {"false", false, false}, {"yes", false, true}} {
			on, err := c.probe(t, v.val)
			switch {
			case v.bad:
				if want := fmt.Sprintf("ldmsd: bad %s %q", c.key, v.val); err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("%s %s=%s: err = %v, want %q", c.cmd, c.key, v.val, err, want)
				}
			case err != nil:
				t.Errorf("%s %s=%s: %v", c.cmd, c.key, v.val, err)
			case on != v.on:
				t.Errorf("%s %s=%s: on = %v, want %v", c.cmd, c.key, v.val, on, v.on)
			}
		}
	}
}

// TestRejectedConfigChangesNothing: a config line with one bad value
// changes none of the plugin's settings, whatever order its keys come in.
func TestRejectedConfigChangesNothing(t *testing.T) {
	for i := 0; i < 20; i++ {
		d := cmdDaemon(t, "n1", sched.NewVirtual(time.Unix(0, 0)), transport.NewNetwork())
		if _, err := d.ExecScript("load name=meminfo\nconfig name=meminfo instance=good/meminfo component_id=3"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Exec("config name=meminfo instance=bad/meminfo with_units=1 component_id=abc"); err == nil {
			t.Fatal("config with component_id=abc accepted")
		}
		d.mu.Lock()
		opts := len(d.pending["meminfo"].options)
		d.mu.Unlock()
		if opts != 0 {
			t.Errorf("rejected config left %d plugin options", opts)
		}
		if _, err := d.Exec("start name=meminfo interval=1s"); err != nil {
			t.Fatal(err)
		}
		set := d.Registry().Get("good/meminfo")
		if set == nil || d.Registry().Get("bad/meminfo") != nil {
			t.Fatalf("sets after a rejected config: %v", d.Registry().Dir())
		}
		if id := set.CompID(0); id != 3 {
			t.Fatalf("component_id = %d, want 3", id)
		}
	}
}

// TestShippedCommandLinesParse: every command line in the docs, the
// commands, the examples, CI and the benchmark rig uses only keys its
// table entry declares.
func TestShippedCommandLinesParse(t *testing.T) {
	root := filepath.Join("..", "..")
	var files []string
	for _, pat := range []string{"README.md", "DESIGN.md", "docs/*.md", "cmd/*/main.go", "internal/core/core.go", ".github/workflows/ci.yml", "bench/rig.go"} {
		m, err := filepath.Glob(filepath.Join(root, pat))
		if err != nil || len(m) == 0 {
			t.Fatalf("%s: no files (%v)", pat, err)
		}
		files = append(files, m...)
	}
	err := filepath.WalkDir(filepath.Join(root, "examples"), func(p string, e fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	key := regexp.MustCompile(`^\[?([A-Za-z_][A-Za-z0-9_]*)=`)
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := commandLines(string(text))
		if strings.HasSuffix(f, "rig.go") && len(lines) < 5 {
			t.Errorf("%s: found only %d command lines: %q", f, len(lines), lines)
		}
		for _, line := range lines {
			fields := strings.Fields(line)
			c := lookupCommand(fields[0])
			for _, fld := range fields[1:] {
				m := key.FindStringSubmatch(fld)
				if m == nil || c.plugin {
					continue
				}
				if _, ok := c.key(m[1]); !ok {
					t.Errorf("%s: %q: %s does not declare %s=", f, line, c.name, m[1])
				}
			}
		}
	}
}

// commandLines returns the command lines in text: each line, `code span`,
// "quoted string" or ldmsctl argument list, split at \n escapes, pipes and
// semicolons, whose first word is a table command. Comments are dropped,
// and a line that starts with "!" (a check that the command fails) is
// skipped.
func commandLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "//"))
		if strings.HasPrefix(line, "!") {
			continue
		}
		segs := []string{line}
		for _, q := range []string{"`", `"`} {
			parts := strings.Split(line, q)
			for i := 1; i < len(parts); i += 2 {
				segs = append(segs, strings.Split(parts[i], `\n`)...)
			}
		}
		if _, rest, ok := strings.Cut(line, "ldmsctl "); ok {
			f := strings.Fields(rest)
			for len(f) > 1 && strings.HasPrefix(f[0], "-") {
				f = f[2:]
			}
			segs = append(segs, strings.Join(f, " "))
		}
		for _, seg := range segs {
			seg, _, _ = strings.Cut(seg, " #")
			for _, s := range strings.FieldsFunc(seg, func(r rune) bool { return r == '|' || r == ';' }) {
				if f := strings.Fields(s); len(f) > 0 && lookupCommand(f[0]) != nil {
					out = append(out, strings.TrimSpace(s))
				}
			}
		}
	}
	return out
}
