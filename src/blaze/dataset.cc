#include "blaze/dataset.h"

#include "support/error.h"

namespace s2fa::blaze {

void Dataset::AddColumn(Column column) {
  S2FA_REQUIRE(!column.field.empty(), "column needs a field name");
  S2FA_REQUIRE(column.per_record >= 1, "per_record must be >= 1");
  if (column.element.is_primitive()) {
    column.data.ConvertTo(jvm::StorageOf(column.element));
  }
  S2FA_REQUIRE(column.data.size() % static_cast<std::size_t>(
                                        column.per_record) ==
                   0,
               "column " << column.field << " data size "
                         << column.data.size()
                         << " is not a multiple of per_record "
                         << column.per_record);
  std::size_t records =
      column.data.size() / static_cast<std::size_t>(column.per_record);
  if (columns_.empty()) {
    num_records_ = records;
  } else {
    S2FA_REQUIRE(records == num_records_,
                 "column " << column.field << " has " << records
                           << " records, dataset has " << num_records_);
  }
  for (const auto& existing : columns_) {
    S2FA_REQUIRE(existing.field != column.field,
                 "duplicate column field " << column.field);
  }
  columns_.push_back(std::move(column));
}

const Column& Dataset::column(std::size_t index) const {
  S2FA_REQUIRE(index < columns_.size(), "column index out of range");
  return columns_[index];
}

const Column& Dataset::ColumnByField(const std::string& field) const {
  for (const auto& c : columns_) {
    if (c.field == field) return c;
  }
  throw InvalidArgument("no column for field " + field);
}

Column& Dataset::MutableColumnByField(const std::string& field) {
  for (auto& c : columns_) {
    if (c.field == field) return c;
  }
  throw InvalidArgument("no column for field " + field);
}

bool Dataset::HasField(const std::string& field) const {
  for (const auto& c : columns_) {
    if (c.field == field) return true;
  }
  return false;
}

double Dataset::TotalBytes() const {
  double bytes = 0;
  for (const auto& c : columns_) {
    bytes += static_cast<double>(c.data.size()) *
             (c.element.bit_width() / 8.0);
  }
  return bytes;
}

Dataset ConcatDatasets(const std::vector<const Dataset*>& inputs) {
  S2FA_CHECK(!inputs.empty(), "empty batch");
  if (inputs.size() == 1) return *inputs.front();
  const Dataset& first = *inputs.front();
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    S2FA_CHECK(inputs[i]->num_columns() == first.num_columns(),
               "batched requests disagree on column count");
  }
  Dataset out;
  for (std::size_t c = 0; c < first.num_columns(); ++c) {
    const Column& head = first.column(c);
    Column column;
    column.field = head.field;
    column.element = head.element;
    column.per_record = head.per_record;
    column.data = jvm::PrimitiveArray(head.data.storage());
    std::size_t total = 0;
    for (const Dataset* input : inputs) {
      const Column& other = input->column(c);
      S2FA_CHECK(other.field == head.field &&
                     other.per_record == head.per_record,
                 "batched requests disagree on schema");
      total += other.data.size();
    }
    column.data.reserve(total);
    for (const Dataset* input : inputs) {
      column.data.Append(input->column(c).data);
    }
    out.AddColumn(std::move(column));
  }
  return out;
}

Dataset SliceRecords(const Dataset& data, std::size_t begin,
                     std::size_t count) {
  S2FA_REQUIRE(begin <= data.num_records() &&
                   count <= data.num_records() - begin,
               "slice [" << begin << ", " << begin << " + " << count
                         << ") is past the dataset's "
                         << data.num_records() << " records");
  Dataset out;
  for (std::size_t c = 0; c < data.num_columns(); ++c) {
    const Column& column = data.column(c);
    Column piece;
    piece.field = column.field;
    piece.element = column.element;
    piece.per_record = column.per_record;
    const auto per = static_cast<std::size_t>(column.per_record);
    piece.data = jvm::PrimitiveArray(column.data, begin * per, count * per);
    out.AddColumn(std::move(piece));
  }
  return out;
}

}  // namespace s2fa::blaze
