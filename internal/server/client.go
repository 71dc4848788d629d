package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Client is a minimal synchronous client for the TCP line/JSON protocol: one
// Do call sends one command line and reads back its one-line JSON response.
// A Client is a single session and is not safe for concurrent use; open one
// per concurrent connection.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	timeout time.Duration
}

// Dial connects to an xraserve TCP address.  timeout bounds the dial and
// every subsequent request/response round trip; zero disables.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn:    conn,
		r:       bufio.NewReaderSize(conn, 1<<20),
		timeout: timeout,
	}, nil
}

// Do sends one command line and returns the server's response.
func (c *Client) Do(line string) (Response, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		return Response{}, err
	}
	raw, err := c.r.ReadBytes('\n')
	if err != nil {
		return Response{}, err
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return Response{}, fmt.Errorf("decoding response %q: %w", raw, err)
	}
	return resp, nil
}

// Close ends the session (best-effort \q) and closes the connection.
func (c *Client) Close() error {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	fmt.Fprintln(c.conn, `\q`)
	return c.conn.Close()
}
