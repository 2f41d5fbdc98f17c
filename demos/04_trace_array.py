"""
Reading the network as a coefficient array
==========================================

Each system's label is, at every moment, a known linear combination
of the initial labels.  Writing those coefficient vectors as columns
over time gives an array in which every row obeys the same recurrence
as the sequence itself, each row is the next row shifted by one step,
and the column sums reproduce the sequence mod d.
"""
from swapnet import seq_stream, trace_array

d = 4
arr = trace_array(d, 26)
print(f"columns t = {arr.t_start} .. {arr.t_end}")
for i in range(d):
    print(f"row {i}: " + " ".join(str(v) for v in arr.row(i)))

# The first columns are unit vectors: before any gate fires, system j
# holds exactly its own initial label.
for t in range(arr.t_start, 1):
    col = arr.column(t)
    assert sum(col) == 1 and col[t % d] == 1

# Every later column is the sum of its two defining predecessors.
for t in range(1, arr.t_end + 1):
    prev, old = arr.column(t - 1), arr.column(t - d)
    assert arr.column(t) == tuple((x + y) % d for x, y in zip(prev, old))

# Rows are translates of one another: row i today is row i+1 tomorrow.
rows = [arr.row(i) for i in range(d)]
for i in range(d - 1):
    assert rows[i][:-1] == rows[i + 1][1:]

# Dotting columns with all-ones initial labels recovers the sequence
# mod d, from its very first term.
header = arr.header()
stream = seq_stream(d, d, len(header))
assert header == stream
print("column sums:", " ".join(str(v) for v in header))
print("sequence   :", " ".join(str(v) for v in stream))
