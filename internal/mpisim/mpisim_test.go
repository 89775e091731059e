package mpisim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
)

func TestSendRecv(t *testing.T) {
	c := newComm(2)
	var wg sync.WaitGroup
	wg.Add(2)
	var got []byte
	go func() {
		defer wg.Done()
		r := &Rank{rank: 0, comm: c}
		r.send(1, 7, []byte("ping"))
	}()
	go func() {
		defer wg.Done()
		r := &Rank{rank: 1, comm: c}
		got, _, _ = r.recv(0, 7)
	}()
	wg.Wait()
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
}

func TestRecvTagMatching(t *testing.T) {
	c := newComm(2)
	s := &Rank{rank: 0, comm: c}
	r := &Rank{rank: 1, comm: c}
	s.send(1, 1, []byte("first"))
	s.send(1, 2, []byte("second"))
	// Receive tag 2 first even though tag 1 arrived earlier.
	data, from, err := r.recv(0, 2)
	if err != nil || string(data) != "second" || from != 0 {
		t.Fatalf("recv tag2 = %q from %d err %v", data, from, err)
	}
	data, _, _ = r.recv(AnySource, AnyTag)
	if string(data) != "first" {
		t.Fatalf("recv any = %q", data)
	}
}

func TestSendInvalidRank(t *testing.T) {
	c := newComm(2)
	r := &Rank{rank: 0, comm: c}
	if err := r.send(5, 0, nil); err == nil {
		t.Fatal("send to rank 5 of 2 accepted")
	}
}

func TestSendCopiesData(t *testing.T) {
	c := newComm(2)
	s := &Rank{rank: 0, comm: c}
	buf := []byte("mutate-me")
	s.send(1, 0, buf)
	buf[0] = 'X'
	r := &Rank{rank: 1, comm: c}
	got, _, _ := r.recv(0, 0)
	if string(got) != "mutate-me" {
		t.Fatalf("message aliased sender buffer: %q", got)
	}
}

func TestBarrier(t *testing.T) {
	const n = 8
	c := newComm(n)
	var mu sync.Mutex
	phase := make(map[int]int)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		rank := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &Rank{rank: rank, comm: c}
			mu.Lock()
			phase[1]++
			mu.Unlock()
			r.Barrier()
			mu.Lock()
			// By the time anyone passes the barrier, all n must have
			// entered phase 1.
			if phase[1] != n {
				t.Errorf("rank %d passed barrier with only %d arrivals", rank, phase[1])
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
}

func TestBcast(t *testing.T) {
	const n = 4
	c := newComm(n)
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		rank := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &Rank{rank: rank, comm: c}
			var data []byte
			if rank == 0 {
				data = []byte("parameters v2")
			}
			got, err := r.Bcast(0, data)
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
			results[rank] = got
		}()
	}
	wg.Wait()
	for i, got := range results {
		if string(got) != "parameters v2" {
			t.Fatalf("rank %d got %q", i, got)
		}
	}
}

func TestReduceSum(t *testing.T) {
	const n = 5
	c := newComm(n)
	var wg sync.WaitGroup
	var total float64
	for i := 0; i < n; i++ {
		rank := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &Rank{rank: rank, comm: c}
			sum, err := r.ReduceSum(0, float64(rank)+0.5)
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
			if rank == 0 {
				total = sum
			}
		}()
	}
	wg.Wait()
	want := 0.5 + 1.5 + 2.5 + 3.5 + 4.5
	if total != want {
		t.Fatalf("sum = %v, want %v", total, want)
	}
}

func TestAbortUnblocksEveryone(t *testing.T) {
	c := newComm(3)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		rank := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &Rank{rank: rank, comm: c}
			switch rank {
			case 0:
				_, _, errs[0] = r.recv(1, 9)
			case 1:
				errs[1] = r.Barrier()
			case 2:
				c.abort()
			}
		}()
	}
	wg.Wait()
	if !errors.Is(errs[0], ErrAborted) || !errors.Is(errs[1], ErrAborted) {
		t.Fatalf("errs = %v", errs)
	}
	// Post-abort operations fail fast.
	r := &Rank{rank: 2, comm: c}
	if err := r.send(0, 0, nil); !errors.Is(err, ErrAborted) {
		t.Fatalf("send after abort = %v", err)
	}
}

func runApp(t *testing.T, app *App, stdinData string) (stdouts []string, errs []error) {
	t.Helper()
	funcs, err := app.AppFuncs()
	if err != nil {
		t.Fatal(err)
	}
	stdouts = make([]string, len(funcs))
	errs = make([]error, len(funcs))
	var wg sync.WaitGroup
	for i, fn := range funcs {
		i, fn := i, fn
		proc, err := interpose.Func(fn)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if i == 0 && stdinData != "" {
				io.WriteString(proc.Stdin(), stdinData)
			}
			proc.Stdin().Close()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			io.Copy(&buf, proc.Stdout())
			errs[i] = proc.Wait()
			stdouts[i] = buf.String()
		}()
	}
	wg.Wait()
	return stdouts, errs
}

func TestG2AppOneSubjobPerRank(t *testing.T) {
	app := &App{
		Flavor: jdl.MPICHG2,
		Ranks:  3,
		Body: func(r *Rank) error {
			if r.Rank() == 0 {
				line, _ := io.ReadAll(r.Stdin)
				r.Bcast(0, line)
				fmt.Fprintf(r.Stdout, "rank0 read %d bytes\n", len(line))
				return nil
			}
			data, err := r.Bcast(0, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(r.Stdout, "rank%d got %d bytes\n", r.Rank(), len(data))
			return nil
		},
	}
	if app.subjobs() != 3 {
		t.Fatalf("Subjobs = %d", app.subjobs())
	}
	outs, errs := runApp(t, app, "steering input\n")
	for i, err := range errs {
		if err != nil {
			t.Fatalf("subjob %d: %v", i, err)
		}
	}
	if !strings.Contains(outs[0], "rank0 read 15") {
		t.Fatalf("out0 = %q", outs[0])
	}
	for i := 1; i < 3; i++ {
		if !strings.Contains(outs[i], fmt.Sprintf("rank%d got 15", i)) {
			t.Fatalf("out%d = %q", i, outs[i])
		}
	}
}

func TestP4AppSingleSubjob(t *testing.T) {
	app := &App{
		Flavor: jdl.MPICHP4,
		Ranks:  4,
		Body: func(r *Rank) error {
			sum, err := r.ReduceSum(0, 1)
			if err != nil {
				return err
			}
			if r.Rank() == 0 {
				fmt.Fprintf(r.Stdout, "ranks: %.0f\n", sum)
			}
			return nil
		},
	}
	if app.subjobs() != 1 {
		t.Fatalf("Subjobs = %d", app.subjobs())
	}
	outs, errs := runApp(t, app, "")
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if outs[0] != "ranks: 4\n" {
		t.Fatalf("out = %q", outs[0])
	}
}

func TestP4NonZeroRanksGetEOFStdin(t *testing.T) {
	app := &App{
		Flavor: jdl.MPICHP4,
		Ranks:  2,
		Body: func(r *Rank) error {
			data, _ := io.ReadAll(r.Stdin)
			if r.Rank() != 0 && len(data) != 0 {
				return fmt.Errorf("rank %d read %d bytes", r.Rank(), len(data))
			}
			return nil
		},
	}
	_, errs := runApp(t, app, "only for rank zero\n")
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
}

func TestAppErrorsAbortPeers(t *testing.T) {
	app := &App{
		Flavor: jdl.MPICHG2,
		Ranks:  2,
		Body: func(r *Rank) error {
			if r.Rank() == 0 {
				return errors.New("rank 0 exploded")
			}
			_, _, err := r.recv(0, 99) // would block forever without abort
			return err
		},
	}
	_, errs := runApp(t, app, "")
	if errs[0] == nil {
		t.Fatal("rank 0 error lost")
	}
	if errs[1] == nil {
		t.Fatal("rank 1 not aborted")
	}
}

func TestAppValidation(t *testing.T) {
	if _, err := (&App{Flavor: jdl.MPICHG2, Ranks: 0, Body: func(*Rank) error { return nil }}).AppFuncs(); err == nil {
		t.Fatal("0 ranks accepted")
	}
	if _, err := (&App{Flavor: jdl.Sequential, Ranks: 2, Body: func(*Rank) error { return nil }}).AppFuncs(); err == nil {
		t.Fatal("sequential with 2 ranks accepted")
	}
	if _, err := (&App{Flavor: jdl.MPICHP4, Ranks: 2}).AppFuncs(); err == nil {
		t.Fatal("nil body accepted")
	}
}
