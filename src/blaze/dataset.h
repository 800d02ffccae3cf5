// Column-oriented record datasets: the RDD stand-in.
//
// A Dataset holds N records of a flattened composite type: one column per
// flattened field, each record contributing `per_record` consecutive
// elements (1 for scalar fields). This mirrors what Blaze ships across the
// JVM/FPGA boundary after (de)serialization, and lets the runtime slice
// batches without touching a JVM heap.
//
// A column's elements are one typed jvm::PrimitiveArray in the storage
// class of its element type (a byte column stores sign-extended int32, a
// float column 4-byte floats), so concatenating and slicing batches are
// block copies. Once a column is in a Dataset its array holds exactly that
// class: AddColumn converts data built in another one. The array's
// Value-level surface (push_back, operator[], range-for) is for the JVM
// boundary and for building inputs, not for the served path.
//
// Every streamed record's output is a Dataset, so its footprint is kept
// small: a Dataset is 32 bytes (the column vector and the record count), a
// Column 88, and a column of at most 8 bytes of elements keeps them inline
// (primitive_array.h). A one-row double record is one 96-byte heap chunk.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jvm/primitive_array.h"

namespace s2fa::blaze {

struct Column {
  std::string field;             // source field name, e.g. "_1"
  jvm::Type element;             // primitive element type
  std::int64_t per_record = 1;   // elements per record
  jvm::PrimitiveArray data;      // num_records * per_record values
};

class Dataset {
 public:
  Dataset() = default;

  // Adds a column; all columns must agree on the record count. Data held
  // in another storage class is converted to the element type's.
  void AddColumn(Column column);

  std::size_t num_records() const { return num_records_; }
  std::size_t num_columns() const { return columns_.size(); }

  const Column& column(std::size_t index) const;
  // Finds by field name; throws InvalidArgument if absent.
  const Column& ColumnByField(const std::string& field) const;
  Column& MutableColumnByField(const std::string& field);
  bool HasField(const std::string& field) const;

  // Total payload bytes across all columns.
  double TotalBytes() const;

 private:
  std::vector<Column> columns_;
  std::size_t num_records_ = 0;
};

// Every streamed record's output is one Dataset: growth here is per record.
static_assert(sizeof(Dataset) <= 32, "blaze::Dataset grew past 32 bytes");

// Concatenates datasets column-wise into one batch, one block copy per
// member column. All members must share a schema (the serving layers batch
// by kernel, so a mismatch is a caller bug worth failing loudly on).
Dataset ConcatDatasets(const std::vector<const Dataset*>& inputs);

// Slices `count` records starting at `begin` out of a batch result (one
// block copy per column). The range must lie inside `data`; a zero-count
// slice keeps the schema.
Dataset SliceRecords(const Dataset& data, std::size_t begin,
                     std::size_t count);

}  // namespace s2fa::blaze
