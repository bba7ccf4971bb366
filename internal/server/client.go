package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
)

// Client is a minimal client for the text protocol, used by the
// cluster example and the tests.
type Client struct {
	conn net.Conn
	r    *bufio.Scanner
	w    *bufio.Writer
}

// Dial connects to a hydra server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, r: bufio.NewScanner(conn), w: bufio.NewWriter(conn)}
	c.r.Buffer(make([]byte, 64*1024), 1024*1024)
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one command and reads a single-line reply.
func (c *Client) roundTrip(cmd string) (string, error) {
	if _, err := fmt.Fprintf(c.w, "%s\n", cmd); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("server: connection closed")
	}
	return c.r.Text(), nil
}

func expectOK(reply string) error {
	if strings.HasPrefix(reply, "+") {
		return nil
	}
	return fmt.Errorf("server: %s", strings.TrimPrefix(reply, "-ERR "))
}

// Ping checks liveness.
func (c *Client) Ping() error {
	reply, err := c.roundTrip("PING")
	if err != nil {
		return err
	}
	return expectOK(reply)
}

// CreateTable creates a table.
func (c *Client) CreateTable(name string) error {
	reply, err := c.roundTrip("CREATE " + name)
	if err != nil {
		return err
	}
	return expectOK(reply)
}

// Set upserts a value. The value travels byte-exact, spaces
// included, but a line protocol cannot carry a line break: a value
// holding '\n' or '\r' is refused before anything is sent.
func (c *Client) Set(table string, key uint64, value string) error {
	if strings.ContainsAny(value, "\r\n") {
		return fmt.Errorf("server: SET value for key %d contains a line break", key)
	}
	reply, err := c.roundTrip(fmt.Sprintf("SET %s %d %s", table, key, value))
	if err != nil {
		return err
	}
	return expectOK(reply)
}

// Get reads a value.
func (c *Client) Get(table string, key uint64) (string, error) {
	reply, err := c.roundTrip(fmt.Sprintf("GET %s %d", table, key))
	if err != nil {
		return "", err
	}
	if err := expectOK(reply); err != nil {
		return "", err
	}
	return strings.TrimPrefix(reply, "+VALUE "), nil
}

// Del deletes a key.
func (c *Client) Del(table string, key uint64) error {
	reply, err := c.roundTrip(fmt.Sprintf("DEL %s %d", table, key))
	if err != nil {
		return err
	}
	return expectOK(reply)
}

// Row is one SCAN result.
type Row struct {
	Key   uint64
	Value string
}

// Scan returns up to max rows in [lo, hi].
func (c *Client) Scan(table string, lo, hi uint64, max int) ([]Row, error) {
	if _, err := fmt.Fprintf(c.w, "SCAN %s %d %d %d\n", table, lo, hi, max); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	var rows []Row
	for c.r.Scan() {
		line := c.r.Text()
		switch {
		case line == "+END":
			return rows, nil
		case strings.HasPrefix(line, "+ROW "):
			rest := strings.TrimPrefix(line, "+ROW ")
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("server: malformed row %q", line)
			}
			k, err := strconv.ParseUint(rest[:sp], 10, 64)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{Key: k, Value: rest[sp+1:]})
		default:
			return nil, fmt.Errorf("server: %s", strings.TrimPrefix(line, "-ERR "))
		}
	}
	return nil, fmt.Errorf("server: connection closed mid-scan")
}

// Begin / Commit / Abort manage an explicit transaction on this
// connection.
func (c *Client) Begin() error { return c.simple("BEGIN") }

// Commit commits the open transaction.
func (c *Client) Commit() error { return c.simple("COMMIT") }

// Abort rolls back the open transaction.
func (c *Client) Abort() error { return c.simple("ABORT") }

func (c *Client) simple(cmd string) error {
	reply, err := c.roundTrip(cmd)
	if err != nil {
		return err
	}
	return expectOK(reply)
}

// Raw sends one verbatim command line and returns the single-line
// reply (without the +/- status prefix); -ERR replies become errors.
func (c *Client) Raw(line string) (string, error) {
	reply, err := c.roundTrip(line)
	if err != nil {
		return "", err
	}
	if err := expectOK(reply); err != nil {
		return "", err
	}
	return strings.TrimPrefix(strings.TrimPrefix(reply, "+VALUE "), "+"), nil
}

// Stats fetches the server counters line.
func (c *Client) Stats() (string, error) {
	reply, err := c.roundTrip("STATS")
	if err != nil {
		return "", err
	}
	if err := expectOK(reply); err != nil {
		return "", err
	}
	return strings.TrimPrefix(reply, "+VALUE "), nil
}

// StatsFull fetches and decodes the full observability snapshot.
func (c *Client) StatsFull() (StatsJSON, error) {
	var st StatsJSON
	reply, err := c.roundTrip("STATS FULL")
	if err != nil {
		return st, err
	}
	if err := expectOK(reply); err != nil {
		return st, err
	}
	err = json.Unmarshal([]byte(strings.TrimPrefix(reply, "+VALUE ")), &st)
	return st, err
}
