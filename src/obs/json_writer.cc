#include "obs/json_writer.h"

#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace cpt::obs {

JsonWriter::JsonWriter(std::ostream& os, bool pretty) : os_(os), pretty_(pretty) {}

JsonWriter::~JsonWriter() = default;

bool JsonWriter::Complete() const { return done_ && stack_.empty() && !expect_value_; }

void JsonWriter::NewlineIndent() {
  if (!pretty_) {
    return;
  }
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    os_ << "  ";
  }
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) {
    CPT_CHECK(!done_, "only one top-level JSON value per writer");
    return;
  }
  if (stack_.back() == Ctx::kObject) {
    CPT_CHECK(expect_value_, "object members need a Key() before each value");
    expect_value_ = false;
    return;
  }
  // Array element.
  if (has_members_.back()) {
    os_ << (pretty_ ? ", " : ",");
  }
  has_members_.back() = true;
}

void JsonWriter::Key(std::string_view key) {
  CPT_CHECK(!stack_.empty() && stack_.back() == Ctx::kObject, "Key() outside an object");
  CPT_CHECK(!expect_value_, "two Key() calls without a value between them");
  if (has_members_.back()) {
    os_ << ',';
  }
  has_members_.back() = true;
  NewlineIndent();
  os_ << '"' << Escape(key) << (pretty_ ? "\": " : "\":");
  expect_value_ = true;
}

void JsonWriter::BeginObject() {
  BeforeValue();
  os_ << '{';
  stack_.push_back(Ctx::kObject);
  has_members_.push_back(false);
}

void JsonWriter::EndObject() {
  CPT_CHECK(!stack_.empty() && stack_.back() == Ctx::kObject, "unbalanced EndObject()");
  CPT_CHECK(!expect_value_, "dangling Key() at EndObject()");
  const bool had = has_members_.back();
  stack_.pop_back();
  has_members_.pop_back();
  if (had) {
    NewlineIndent();
  }
  os_ << '}';
  if (stack_.empty()) {
    done_ = true;
  }
}

void JsonWriter::BeginArray() {
  BeforeValue();
  os_ << '[';
  stack_.push_back(Ctx::kArray);
  has_members_.push_back(false);
}

void JsonWriter::EndArray() {
  CPT_CHECK(!stack_.empty() && stack_.back() == Ctx::kArray, "unbalanced EndArray()");
  stack_.pop_back();
  has_members_.pop_back();
  os_ << ']';
  if (stack_.empty()) {
    done_ = true;
  }
}

void JsonWriter::String(std::string_view v) {
  BeforeValue();
  os_ << '"' << Escape(v) << '"';
  if (stack_.empty()) {
    done_ = true;
  }
}

void JsonWriter::Uint(std::uint64_t v) {
  BeforeValue();
  os_ << v;
  if (stack_.empty()) {
    done_ = true;
  }
}

void JsonWriter::Int(std::int64_t v) {
  BeforeValue();
  os_ << v;
  if (stack_.empty()) {
    done_ = true;
  }
}

void JsonWriter::Double(double v) {
  BeforeValue();
  if (std::isnan(v) || std::isinf(v)) {
    os_ << "null";  // JSON has no NaN/Inf.
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
  }
  if (stack_.empty()) {
    done_ = true;
  }
}

void JsonWriter::Bool(bool v) {
  BeforeValue();
  os_ << (v ? "true" : "false");
  if (stack_.empty()) {
    done_ = true;
  }
}

void JsonWriter::Null() {
  BeforeValue();
  os_ << "null";
  if (stack_.empty()) {
    done_ = true;
  }
}

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void HistogramToJson(JsonWriter& w, const Histogram& h) {
  w.BeginObject();
  w.KV("total", h.total());
  w.KV("mean", h.mean());
  w.KV("overflow", h.overflow());
  w.Key("counts");
  w.BeginObject();
  for (std::size_t v = 0; v <= h.max_value(); ++v) {
    if (h.count(v) != 0) {
      w.KV(std::to_string(v), h.count(v));
    }
  }
  w.EndObject();
  w.EndObject();
}

}  // namespace cpt::obs
