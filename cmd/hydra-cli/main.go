// Command hydra-cli is an interactive client for hydra-server: a
// small REPL over the text protocol with help, timing, and history-
// free line editing (plain stdin).
//
// Usage:
//
//	hydra-cli [-addr localhost:7654] [command...]
//
// With arguments, runs the single command and exits (scripting mode):
//
//	hydra-cli -addr :7654 SET users 1 ada
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hydra/internal/server"
)

const replHelp = `commands:
  CREATE <table>                create a table
  SET <table> <key> <value...>  upsert a row (autocommit or in txn)
  GET <table> <key>             read a row
  DEL <table> <key>             delete a row
  SCAN <table> <lo> <hi> <max>  range scan
  BEGIN | COMMIT | ABORT        explicit transaction on this connection
  CHECKPOINT                    take a fuzzy checkpoint
  STATS                         engine counters (one line)
  STATS FULL                    every metric family, one line per series
  help | quit`

func main() {
	addr := flag.String("addr", "localhost:7654", "server address")
	flag.Parse()

	c, err := server.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydra-cli: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	if args := flag.Args(); len(args) > 0 {
		if err := runOne(c, strings.Join(args, " ")); err != nil {
			fmt.Fprintf(os.Stderr, "hydra-cli: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("connected to %s; 'help' for commands\n", *addr)
	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("hydra> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		switch strings.ToLower(line) {
		case "":
			continue
		case "help":
			fmt.Println(replHelp)
			continue
		case "quit", "exit":
			return
		}
		start := time.Now()
		err := runOne(c, line)
		elapsed := time.Since(start).Round(time.Microsecond)
		if err != nil {
			fmt.Printf("error: %v (%v)\n", err, elapsed)
		} else {
			fmt.Printf("(%v)\n", elapsed)
		}
	}
}

// runOne parses and executes one REPL line against the client.
func runOne(c *server.Client, line string) error {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	switch cmd {
	case "GET":
		if len(fields) != 3 {
			return fmt.Errorf("usage: GET <table> <key>")
		}
		key, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad key %q", fields[2])
		}
		v, err := c.Get(fields[1], key)
		if err != nil {
			return err
		}
		fmt.Printf("%q\n", v)
	case "SCAN":
		if len(fields) != 5 {
			return fmt.Errorf("usage: SCAN <table> <lo> <hi> <max>")
		}
		lo, err1 := strconv.ParseUint(fields[2], 10, 64)
		hi, err2 := strconv.ParseUint(fields[3], 10, 64)
		max, err3 := strconv.Atoi(fields[4])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad range arguments")
		}
		rows, err := c.Scan(fields[1], lo, hi, max)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%12d  %q\n", r.Key, r.Value)
		}
		fmt.Printf("%d row(s)\n", len(rows))
	case "STATS":
		if len(fields) == 2 && strings.ToUpper(fields[1]) == "FULL" {
			st, err := c.StatsFull()
			if err != nil {
				return err
			}
			printStats(st)
			return nil
		}
		s, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Println(s)
	default:
		// Pass anything else through verbatim (SET, CREATE, DEL,
		// BEGIN, CHECKPOINT, ...): the line reaches the server
		// byte-exact, so a SET value keeps its spaces.
		reply, err := c.Raw(line)
		if err != nil {
			return err
		}
		fmt.Println(reply)
	}
	return nil
}

// printStats prints every metric family in table order, one line per
// series: counters and gauges as values, histograms as their
// p50/p90/p99/max summary.
func printStats(st server.StatsJSON) {
	for _, f := range st.Families {
		for _, s := range f.Series {
			name := f.Name
			if len(s.Labels) > 0 {
				pairs := make([]string, 0, len(s.Labels))
				for k, v := range s.Labels {
					pairs = append(pairs, k+"="+v)
				}
				sort.Strings(pairs)
				name += "{" + strings.Join(pairs, ",") + "}"
			}
			if s.Hist != nil {
				fmt.Printf("%-56s %s\n", name, s.Hist.Summary)
				continue
			}
			fmt.Printf("%-56s %s\n", name, strconv.FormatFloat(s.Value, 'f', -1, 64))
		}
	}
}
