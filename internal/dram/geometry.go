// Package dram models an off-chip DDR3 memory system at cycle
// granularity: channels, ranks, banks, row buffers, the command and
// data buses, and the JEDEC-style timing constraints between commands.
//
// The package is a pure device model: it knows nothing about request
// queues or scheduling policies. The memory controller (package
// memctrl) decides which command to issue; this package answers
// whether a command is legal at a given cycle and tracks the state
// transitions and statistics that follow from issuing it.
//
// All times are expressed in controller clock cycles. The simulator
// runs the controller at the CPU clock; datasheet values given in DRAM
// bus cycles are converted with Timing.ScaleFrom.
//
// Refresh is not modelled: there is no tREFI or tRFC, no REF command,
// and no bank is ever blocked or has its row closed by a refresh.
// Absolute latencies and bandwidths therefore include no refresh
// stalls.
package dram

import "fmt"

// Geometry describes the organization of one memory system.
//
// All fields must be powers of two so that physical addresses can be
// split into bit fields by package addrmap.
type Geometry struct {
	// Channels is the number of independent memory channels, each
	// with its own command/data bus and controller.
	Channels int
	// Ranks is the number of ranks per channel.
	Ranks int
	// Banks is the number of banks per rank.
	Banks int
	// Rows is the number of rows per bank.
	Rows int
	// Columns is the number of cache-block-sized columns per row,
	// i.e. row-buffer bytes / BlockBytes.
	Columns int
	// BlockBytes is the transfer granularity (cache block size).
	BlockBytes int
}

// DefaultGeometry returns the paper's Table 2 organization: 1 channel,
// 2 ranks, 8 banks per rank, 8KB row buffers, 64B blocks, and 32GB of
// total capacity.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:   1,
		Ranks:      2,
		Banks:      8,
		Rows:       1 << 18, // 32GB / (2 ranks * 8 banks * 8KB rows)
		Columns:    128,     // 8KB row / 64B block
		BlockBytes: 64,
	}
}

// WithChannels returns a copy of g with the channel count replaced and
// the row count scaled down so that total capacity is unchanged. The
// multi-channel study (paper §4.3) holds capacity constant while
// varying channel count.
func (g Geometry) WithChannels(channels int) Geometry {
	if channels <= 0 || channels&(channels-1) != 0 {
		panic(fmt.Sprintf("dram: channel count %d is not a positive power of two", channels))
	}
	scaled := g
	scaled.Rows = g.Rows * g.Channels / channels
	scaled.Channels = channels
	return scaled
}

// Validate reports an error if any dimension is not a positive power
// of two.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("dram: %s = %d must be a positive power of two", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"Ranks", g.Ranks},
		{"Banks", g.Banks},
		{"Rows", g.Rows},
		{"Columns", g.Columns},
		{"BlockBytes", g.BlockBytes},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// TotalBytes returns the capacity of the whole memory system.
func (g Geometry) TotalBytes() uint64 {
	return uint64(g.Channels) * uint64(g.Ranks) * uint64(g.Banks) *
		uint64(g.Rows) * uint64(g.Columns) * uint64(g.BlockBytes)
}

// BanksPerChannel returns ranks * banks for one channel.
func (g Geometry) BanksPerChannel() int { return g.Ranks * g.Banks }

// RowBufferBytes returns the size of one row buffer.
func (g Geometry) RowBufferBytes() int { return g.Columns * g.BlockBytes }

// Location identifies one cache-block-sized column in the memory
// system. It is the decoded form of a physical block address.
type Location struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Column  int
}

// SameRow reports whether two locations fall in the same row of the
// same bank (and therefore can row-buffer hit on each other).
func (l Location) SameRow(o Location) bool {
	return l.Channel == o.Channel && l.Rank == o.Rank && l.Bank == o.Bank && l.Row == o.Row
}

// SameBank reports whether two locations share a bank.
func (l Location) SameBank(o Location) bool {
	return l.Channel == o.Channel && l.Rank == o.Rank && l.Bank == o.Bank
}

func (l Location) String() string {
	return fmt.Sprintf("ch%d/ra%d/ba%d/row%d/col%d", l.Channel, l.Rank, l.Bank, l.Row, l.Column)
}
