// mfa_lint clean fixture: a file exercising every rule's look-alikes.
// Zero findings expected.

// Serialization over an ordered container is fine.
struct Json {};
Json to_json(const std::map<std::string, int>& fields) {
  Json out;
  for (const auto& [key, value] : fields) {
    (void)key;
    (void)value;
  }
  return out;
}

// Fully-annotated class: nothing to report.
class Mutex {};
class Clean {
 private:
  Mutex mutex_;
  int value_ MFA_GUARDED_BY(mutex_) = 0;
  std::atomic<bool> flag_{false};
};
