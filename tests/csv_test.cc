// Tests for storage/csv: import/export round trips, quoting, schema
// inference and error reporting.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gtest/gtest.h"
#include "storage/csv.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::create_directories(dir_.path()); }

  std::string Path(const std::string& name) {
    return dir_.path() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }

  testing_util::ScopedTempPath dir_{"sudaf_csv"};
};

TEST_F(CsvTest, RoundTripAllTypes) {
  Schema schema;
  ASSERT_OK(schema.AddField({"id", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"price", DataType::kFloat64}));
  ASSERT_OK(schema.AddField({"name", DataType::kString}));
  Table table(schema);
  table.AppendRow({Value(int64_t{1}), Value(0.1), Value(std::string("a"))});
  table.AppendRow(
      {Value(int64_t{-7}), Value(1.0 / 3.0), Value(std::string("b,c"))});
  table.AppendRow({Value(int64_t{0}), Value(2.5),
                   Value(std::string("says \"hi\""))});

  std::string path = Path("roundtrip.csv");
  ASSERT_OK(WriteCsv(table, path));
  ASSERT_OK_AND_ASSIGN(auto back, ReadCsv(schema, path));
  ASSERT_EQ(back->num_rows(), 3);
  EXPECT_EQ(back->column(0).GetInt64(1), -7);
  EXPECT_DOUBLE_EQ(back->column(1).GetFloat64(1), 1.0 / 3.0);  // exact
  EXPECT_EQ(back->column(2).GetString(1), "b,c");
  EXPECT_EQ(back->column(2).GetString(2), "says \"hi\"");
}

TEST_F(CsvTest, InferSchemaTypes) {
  std::string path = Path("infer.csv");
  WriteFile(path, "a,b,c\n1,1.5,x\n-2,3,y\n");
  ASSERT_OK_AND_ASSIGN(auto table, ReadCsvInferSchema(path));
  EXPECT_EQ(table->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(table->schema().field(1).type, DataType::kFloat64);
  EXPECT_EQ(table->schema().field(2).type, DataType::kString);
  EXPECT_EQ(table->num_rows(), 2);
}

TEST_F(CsvTest, CrlfAndBlankLinesTolerated) {
  std::string path = Path("crlf.csv");
  WriteFile(path, "a,b\r\n1,2\r\n\r\n3,4\r\n");
  ASSERT_OK_AND_ASSIGN(auto table, ReadCsvInferSchema(path));
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_EQ(table->column(1).GetInt64(1), 4);
}

TEST_F(CsvTest, HeaderMismatchFails) {
  std::string path = Path("mismatch.csv");
  WriteFile(path, "x,y\n1,2\n");
  Schema schema;
  ASSERT_OK(schema.AddField({"a", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"y", DataType::kInt64}));
  EXPECT_FALSE(ReadCsv(schema, path).ok());
}

TEST_F(CsvTest, RaggedRowFails) {
  std::string path = Path("ragged.csv");
  WriteFile(path, "a,b\n1,2\n3\n");
  EXPECT_FALSE(ReadCsvInferSchema(path).ok());
}

TEST_F(CsvTest, BadNumberFails) {
  std::string path = Path("badnum.csv");
  WriteFile(path, "a\nnot_a_number\n");
  Schema schema;
  ASSERT_OK(schema.AddField({"a", DataType::kFloat64}));
  auto result = ReadCsv(schema, path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row 2"), std::string::npos);
}

TEST_F(CsvTest, UnterminatedQuoteFails) {
  std::string path = Path("quote.csv");
  WriteFile(path, "a\n\"oops\n");
  EXPECT_FALSE(ReadCsvInferSchema(path).ok());
}

TEST_F(CsvTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsvInferSchema(Path("nope.csv")).ok());
}

TEST_F(CsvTest, EmptyDataSectionYieldsStrings) {
  std::string path = Path("empty.csv");
  WriteFile(path, "a,b\n");
  ASSERT_OK_AND_ASSIGN(auto table, ReadCsvInferSchema(path));
  EXPECT_EQ(table->num_rows(), 0);
  EXPECT_EQ(table->schema().field(0).type, DataType::kString);
}

TEST_F(CsvTest, QuotedHeaderRoundTrips) {
  Schema schema;
  ASSERT_OK(schema.AddField({"weird,name", DataType::kInt64}));
  Table table(schema);
  table.AppendRow({Value(int64_t{5})});
  std::string path = Path("weird.csv");
  ASSERT_OK(WriteCsv(table, path));
  ASSERT_OK_AND_ASSIGN(auto back, ReadCsvInferSchema(path));
  EXPECT_EQ(back->schema().field(0).name, "weird,name");
  EXPECT_EQ(back->column(0).GetInt64(0), 5);
}

}  // namespace
}  // namespace sudaf
